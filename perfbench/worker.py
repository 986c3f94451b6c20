"""One workload in one fresh process; started by run.py, never by hand.

Prints ``READY`` once set-up is done (interpreter start, ``import vecf``,
config load and initial-data build), then runs the workload and prints one
JSON record as its last line.  With ``--trace 0`` it loops operations for
``--seconds``.  With ``--trace 1`` it runs one operation untraced and then
the same operation traced, so the per-layer counts repeat exactly and the
two walls give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import vecf  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Claims  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "smoke"), required=True)
    p.add_argument("--work-dir", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def loop(workload, seconds: float, min_ops: int = 2) -> list:
    """Closed loop, one client: operations back to back for `seconds`.

    Runs at least `min_ops` operations, so every median spans two, and
    then none that would, at the median operation time so far, end after
    `seconds`.
    """
    ops = []
    start = time.perf_counter()
    while True:
        ops.append(workload.operation())
        elapsed = time.perf_counter() - start
        if (len(ops) >= min_ops and
                elapsed + statistics.median(op.wall_s for op in ops) > seconds):
            return ops


def traced_metrics(untraced, traced, tracer: Tracer) -> dict:
    """Per-layer metrics; the throughputs use the untraced run of the same inputs."""
    metrics = tracer.metrics()
    metrics["cli.artifact_bytes"] = sum(p.values.get("artifact_bytes", 0)
                                        for p in traced.phases)
    metrics["trace.overhead_frac"] = traced.wall_s / untraced.wall_s
    metrics["cell_steps_per_s"] = tracer.cell_steps / untraced.wall_s
    phase_by_name = {p.name: p for p in untraced.phases}
    for suite in Claims.SUITES:
        p = phase_by_name.get(f"{suite}_suite")
        metrics[f"{suite}_samples_per_s"] = p.samples / p.seconds if p else 0.0
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path(vecf.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"vecf imported from {vecf.__file__}, not from {ROOT / 'src'}")
    workload = WORKLOADS[args.workload](args.seed, args.size, args.work_dir)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"workload": args.workload, "sizes": workload.sizes,
              "numpy": np.__version__,
              "blas": f"{blas.get('name')} {blas.get('version')}"}
    if args.trace == 0:
        ops = loop(workload, args.seconds)
    else:
        untraced = workload.operation()
        tracer = Tracer()
        tracer.install()
        try:
            traced = workload.operation()
        finally:
            tracer.uninstall()
        ops = [untraced, traced]
        record["per_layer"] = traced_metrics(untraced, traced, tracer)
    record["ops"] = [asdict(op) for op in ops]
    record["attempted"] = sum(op.attempted for op in ops)
    record["failed"] = sum(op.failed for op in ops)
    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(record, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
