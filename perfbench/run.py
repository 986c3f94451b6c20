"""vecf benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload {dod,evolve-wide,claims} --seed N \\
        --seconds S --trace {0,1} [--size {full,smoke}]

Run from the root of a checkout; vecf is imported from its ``src``
directory, and a checkout without one is refused with exit code 2.  Each
run starts the workload in fresh single-threaded processes (worker.py):
``SETUP_PROBES`` of them only time set-up, the last one also runs the
workload, at least two operations and then as many as fit in
``--seconds``.  All output goes to ``.perfbench_work/`` in the checkout.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, untraced:

- ``setup_s``: median over the processes of the time from process start to
  set-up done (interpreter start, ``import vecf``, config load and
  initial-data build);
- ``wall_s``: median over operations of the time from set-up done to a
  checked verdict;
- ``peak_rss_mb``: peak resident memory of the workload process.

``--trace 1`` reports the per-layer metrics of tracer.py.  The line before
the result holds the environment block, and the whole record is saved in
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import per_layer_spec

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_DIR = ROOT / ".perfbench_work"
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "VECF_THREADS": "1"}


class WorkerFailed(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: small inputs for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def run_worker(args, deadline: float, setup_only: bool):
    """Start worker.py; return (seconds to READY, its last stdout line)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size,
           "--work-dir", str(_scratch())]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env={**os.environ, **THREAD_ENV})
    watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise WorkerFailed(f"worker exited with code {code} ({' '.join(cmd)})")
    return setup_s, (rest[-1] if rest else "")


def _scratch() -> Path:
    return WORK_DIR / f"w{os.getpid()}"


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind != "Instruction":
            sizes[f"L{level}"] = _read(index / "size")
    return sizes


def _git() -> dict:
    if not (ROOT / ".git").exists():
        return {"revision": None, "dirty": None}

    def git(*cmd):
        return subprocess.run(["git", "--no-optional-locks", *cmd], cwd=ROOT,
                              capture_output=True, text=True).stdout.strip()
    return {"revision": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain"))}


def environment(args, record: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": record["numpy"],
        "blas": record["blas"],
        "thread_env": THREAD_ENV,
        "git": _git(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "input_sizes": record["sizes"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "vecf" / "__init__.py").is_file():
        print(f"perfbench: no vecf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        setups = [run_worker(args, deadline, setup_only=True)[0]
                  for _ in range(SETUP_PROBES)]
        setup_s, line = run_worker(args, deadline, setup_only=False)
        record = json.loads(line)
    except (WorkerFailed, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(_scratch(), ignore_errors=True)
    setups.append(setup_s)

    attempted, failed = record["attempted"], record["failed"]
    if args.trace:
        values = record["per_layer"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in per_layer_spec()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(op["wall_s"] for op in record["ops"]),
                       "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    env = environment(args, record)
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    saved = {**result, "failed_frac": failed / attempted, "environment": env,
             "setup_samples_s": setups, "worker": record}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(saved, indent=1, default=str) + "\n")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
