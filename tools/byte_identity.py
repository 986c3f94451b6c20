"""Run the same vecf commands in two checkouts and diff what they produce.

    python3 tools/byte_identity.py CHECKOUT_A CHECKOUT_B

Each command runs as ``python -m vecf.cli --out out ARGS`` with the
checkout's ``src`` first on PYTHONPATH, in a fresh temporary directory per
checkout.  Its stdout, stderr, exit code and the bytes of every file it
writes are compared after dropping each line that holds
``"runtime_seconds"``, the one value that times a run.  The commands are
the ten at their defaults, ``dod-test`` at eps0 = 0.7 (a background the
stencil does not keep exactly fixed), and an ``evolve`` of 4096 cells,
which steps its halves in two processes where the affinity mask holds two
CPUs.  One line is printed per difference; the exit code is 1 if there is
any, else 0.  No golden files: SIMD paths may change the bits of exp and
pow between machines, so only two checkouts on one machine compare.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = [(name, [name]) for name in (
    "gevrey", "verify-factorization", "collapse", "roots", "causality-scan",
    "region-map", "evolve", "dod-test", "convergence", "oracle-divergence")]
COMMANDS += [
    ("dod-test at eps0=0.7", ["--set", "solver.eps0=0.7", "dod-test"]),
    ("split evolve", ["--set", "solver.n_cells=4096", "--set", "solver.t_end=0.007",
                      "--set", "solver.output_every=10", "evolve"]),
]
DROPPED = b'"runtime_seconds"'


def _kept(data: bytes) -> bytes:
    return b"".join(line for line in data.splitlines(keepends=True) if DROPPED not in line)


def run(checkout: Path, args: list, where: Path) -> dict:
    """What one command printed, returned and wrote, by name, each with its
    runtime_seconds lines dropped; it runs in `where`, writing to `out`."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    proc = subprocess.run([sys.executable, "-m", "vecf.cli", "--out", "out", *args],
                          cwd=where, env=env, capture_output=True, timeout=1800)
    seen = {"stdout": proc.stdout, "stderr": proc.stderr,
            "exit code": str(proc.returncode).encode()}
    out = where / "out"
    for path in sorted(out.rglob("*")):
        if path.is_file():
            seen[f"file {path.relative_to(out)}"] = path.read_bytes()
    return {name: _kept(data) for name, data in seen.items()}


def compare(a: Path, b: Path, commands=COMMANDS) -> list:
    """One line for each artifact of `commands` that checkouts a and b do
    not produce byte for byte alike; [] if they all match."""
    diffs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, args) in enumerate(commands):
            sides = []
            for side, checkout in (("a", a), ("b", b)):
                where = Path(tmp) / f"{i}{side}"
                where.mkdir()
                sides.append(run(checkout, args, where))
            for name in sorted(set(sides[0]) | set(sides[1])):
                got = [s.get(name) for s in sides]
                if got[0] != got[1]:
                    why = "differs" if None not in got else f"only in {'ab'[got[1] is not None]}"
                    diffs.append(f"{label}: {name} {why}")
    return diffs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a", type=Path, help="a checkout, e.g. the parent commit's")
    p.add_argument("b", type=Path, help="the checkout to compare with it")
    args = p.parse_args(argv)
    diffs = compare(args.a, args.b)
    for line in diffs:
        print(line)
    print(f"{len(COMMANDS)} commands, "
          + (f"{len(diffs)} difference(s)" if diffs else "every artifact byte-identical"))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
