"""Command-line entry point: analyses and experiments with CSV/JSON artifacts.

Exit codes: 0 all asserted checks passed, 1 a check failed, 2 configuration
error, 3 solver abort.  Every run is reproducible from (command, config,
seed); CSV cells use 17 significant digits so round trips are bit-stable.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import causality, characteristics, equations, experiments, solver1d, verification
from .config import ConfigError, load_config
from .solver1d import SolverAbort, SolverConfig

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _strict(x):
    """x with every non-finite float, at any depth of dicts and lists, as
    None: strict JSON has no NaN or Infinity, so they are written null."""
    if isinstance(x, dict):
        return {k: _strict(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict(v) for v in x]
    if isinstance(x, (float, np.floating)) and not np.isfinite(x):
        return None
    return x


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_strict(payload), fh, indent=2, sort_keys=True, default=float,
                  allow_nan=False)
        fh.write("\n")


def _solver_config(cfg) -> SolverConfig:
    s = cfg["solver"]
    ic_name = s["ic"]
    if ic_name == "constant":
        ic = solver1d.constant_state(eps0=s["eps0"])
    elif ic_name == "gaussian-eps-pulse":
        ic = solver1d.gaussian_pulse(amplitude=s["ic_amplitude"], width=s["ic_width"],
                                     center=s["ic_center"], eps0=s["eps0"])
    else:
        ic = solver1d.shear_pulse(amplitude=s["ic_amplitude"], width=s["ic_width"],
                                  center=s["ic_center"], eps0=s["eps0"])
    try:
        return SolverConfig(transport=cfg.transport_model(), n_cells=s["n_cells"],
                            length=s["length"], cfl=s["cfl"], t_end=s["t_end"],
                            ic=ic, output_every=s["output_every"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_gevrey(cfg, args) -> int:
    report = characteristics.gevrey_check()
    print("factor bookkeeping:")
    for name, fs in (("fluid", characteristics.FLUID_FACTORS),
                     ("coupled", characteristics.COUPLED_FACTORS)):
        parts = ", ".join(f"{e.multiplicity} x degree-{e.degree} ({e.family})"
                          for e in fs.entries)
        print(f"  {name}: {parts}; Q = {fs.factor_count}, "
              f"total degree {fs.total_degree}")
    print(f"fluid Gevrey index:   {report.fluid}")
    print(f"coupled Gevrey index: {report.coupled}")
    model = cfg.transport_model()
    payload = {
        "check": "gevrey-indices",
        "parameters": {"a1": model.a1, "a2": model.a2},
        "seed": None,
        "tolerances": {"exact": True},
        "fluid_index": str(report.fluid),
        "coupled_index": str(report.coupled),
        "passed": report.passed,
    }
    _write_json(Path(args.out) / "gevrey.json", payload)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# the most samples a suite may draw.  A suite's peak memory grows by about
# 1.3 KB a sample (roots; 1.1 KB verify-factorization, 0.8 KB collapse, read
# at 10^3 and 10^5 samples on x86-64 with numpy 2.4.6), so a run at the
# bound peaks near 1.3 GB
MAX_SAMPLES = 10 ** 6


def _suite_args(args) -> dict:
    """The --samples and --seed flags given, as suite keywords; a suite runs
    at its own criterion's samples and seed otherwise.  --samples outside
    [1, MAX_SAMPLES] and --seed below 0 are config errors."""
    if args.samples is not None and not 1 <= args.samples <= MAX_SAMPLES:
        raise ConfigError(f"--samples must lie in [1, {MAX_SAMPLES}], got {args.samples}")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    return {k: v for k, v in (("samples", args.samples), ("seed", args.seed))
            if v is not None}


def cmd_verify_factorization(cfg, args) -> int:
    report = verification.factorization_suite(**_suite_args(args))
    _write_json(Path(args.out) / "verify_factorization.json", report.to_json())
    print(f"determinant factorization: {report.samples} samples, "
          f"max scaled error {report.max_scaled_error:.3e} "
          f"(tolerance {report.tolerance:.0e}) -> "
          f"{'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_collapse(cfg, args) -> int:
    report = verification.collapse_suite(**_suite_args(args))
    _write_json(Path(args.out) / "collapse.json", report.to_json())
    print(f"general-quartic collapse: {report.samples} samples, "
          f"max relative error {report.max_relative_error:.3e} "
          f"(tolerance {report.tolerance:.0e}), |C(a1=4)| = {abs(report.c_at_a1_4):.1e} -> "
          f"{'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_roots(cfg, args) -> int:
    report = verification.roots_suite(**_suite_args(args))
    out = Path(args.out)
    _write_csv(out / "roots.csv",
               ["family", "a2", "u2", "closed_minus", "closed_plus",
                "numeric_minus", "numeric_plus", "abs_error"], report.rows)
    _write_json(out / "roots.json", report.to_json())
    print(f"roots: max |closed - numeric| = "
          f"{max(report.max_root_error.values()):.3e} -> "
          f"{'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_causality_scan(cfg, args) -> int:
    rows = causality.causality_scan(causality.SCAN_A2, causality.SCAN_U_MAX)
    verdict = causality.scan_verdict(rows)
    out = Path(args.out)
    _write_csv(out / "causality_scan.csv",
               ["a1", "a2", "u2", "theta_max_p2", "smax_p2", "smax_p3", "verdict"],
               [[r.a1, r.a2, r.u2, r.theta_max_p2, r.smax_p2, r.smax_p3, r.verdict]
                for r in rows])
    n_violated = sum(1 for r in rows if r.verdict == "violated")
    worst_p2 = max(verdict.max_shear.values())
    worst_p3 = max(verdict.max_sound.values())
    payload = {
        "check": "causality-scan",
        "parameters": {"a1": rows[0].a1, "a2_list": causality.SCAN_A2,
                       "u_max": causality.SCAN_U_MAX, "theta_steps": causality.N_THETA},
        "seed": None,
        "tolerances": {"boundary": causality.BOUNDARY_TOL},
        "rows": len(rows),
        "max_smax_p2": worst_p2,
        "max_smax_p3": worst_p3,
        "violated_cells": n_violated,
        "passed": verdict.passed,
    }
    _write_json(out / "causality_scan.json", payload)
    print(f"causality scan: {len(rows)} cells, max shear slope {worst_p2:.6f}, "
          f"max sound slope {worst_p3:.6f}, violations {n_violated} -> "
          f"{'PASS' if verdict.passed else 'FAIL'}")
    return EXIT_OK if verdict.passed else EXIT_CHECK_FAILED


def _causal_row(a1, a2) -> bool:
    """Whether a region-map cell lies in the causal regime a1 = 4, a2 >= 4."""
    return abs(a1 - 4.0) < 1e-12 and a2 >= 4.0


def cmd_region_map(cfg, args) -> int:
    a1_grid, a2_grid = causality.REGION_A1, causality.REGION_A2
    cells = causality.hyperbolicity_region_map(a1_grid, a2_grid)
    out = Path(args.out)
    _write_csv(out / "region_map.csv", ["a1", "a2", "label", "max_abs_slope"],
               [[c.a1, c.a2, c.label, c.max_abs_slope] for c in cells])
    causal_row_ok = all(c.label in ("causal-strict", "causal-boundary")
                        for c in cells if _causal_row(c.a1, c.a2))
    payload = {
        "check": "region-map",
        "parameters": {"a1_grid": list(map(float, a1_grid)),
                       "a2_grid": list(map(float, a2_grid))},
        "seed": None,
        "tolerances": {"boundary": causality.BOUNDARY_TOL},
        "cells": len(cells),
        "a1_4_row_causal": causal_row_ok,
        "passed": causal_row_ok,
    }
    _write_json(out / "region_map.json", payload)
    print(f"region map: {len(cells)} cells; a1=4, a2>=4 row causal: {causal_row_ok}")
    return EXIT_OK if causal_row_ok else EXIT_CHECK_FAILED


# one evolve.csv row: t, x, u0, u1, u2, u3, eps, as np.savetxt(fmt="%.17g",
# delimiter=",") writes it; rows are formatted in blocks of _CSV_BLOCK, whose
# strings and float objects stay near 0.2 MB
_CSV_ROW = ",".join(["%.17g"] * 7) + "\n"
_CSV_BLOCK = 512


def _write_csv_rows(fh, rows: np.ndarray) -> None:
    """Write the (n, 7) rows as evolve.csv text, one %-format per block of
    _CSV_BLOCK rows: the bytes of np.savetxt's row loop."""
    for lo in range(0, len(rows), _CSV_BLOCK):
        block = rows[lo:lo + _CSV_BLOCK]
        fh.write((_CSV_ROW * len(block)) % tuple(block.ravel().tolist()))


def cmd_evolve(cfg, args) -> int:
    scfg = _solver_config(cfg)
    try:
        traj = solver1d.evolve(scfg)
    except ValueError as exc:          # initial data rejected before stepping
        raise ConfigError(str(exc)) from exc
    out = Path(args.out)
    x = np.arange(scfg.n_cells) * (scfg.length / scfg.n_cells)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "evolve.csv", "w") as fh:
        fh.write("t,x,u0,u1,u2,u3,eps\n")
        for t, snap in zip(traj.times, traj.snapshots):
            _write_csv_rows(fh, np.column_stack([np.full(scfg.n_cells, t), x, snap.T]))
    with open(out / "evolve_diagnostics.jsonl", "w") as fh:
        for d in traj.diagnostics:
            fh.write(json.dumps(_strict(asdict(d)), allow_nan=False) + "\n")
    print(f"evolved to t={traj.times[-1]:.6g} with dt={traj.dt:.3e}; "
          f"max constraint drift {traj.drift_max:.3e}")
    return EXIT_OK


def cmd_dod_test(cfg, args) -> int:
    scfg = _solver_config(cfg)
    try:
        report = experiments.dod_experiment(
            replace(scfg, ic=solver1d.constant_state(eps0=cfg["solver"]["eps0"])),
            experiments.DOD_PROBE_T, experiments.DOD_PROBE_X,
            resolutions=experiments.DOD_RESOLUTIONS)
    except ValueError as exc:          # placement or initial data rejected
        raise ConfigError(str(exc)) from exc
    out = Path(args.out)
    ok = report.passed
    payload = {
        "check": "domain-of-dependence",
        "parameters": {"a1": scfg.transport.a1, "a2": scfg.transport.a2,
                       "probe_t": report.probe_t, "probe_x": report.probe_x,
                       "v_max": report.v_max, "cone_radius": report.cone_radius},
        "seed": None,
        "tolerances": {"outside_ratio_min": experiments.DOD_OUTSIDE_RATIO_MIN,
                       "outside_order": list(experiments.DOD_OUTSIDE_ORDER),
                       "inside_stability": experiments.DOD_INSIDE_STABILITY,
                       "inside_over_outside_min":
                           experiments.DOD_INSIDE_OVER_OUTSIDE_MIN},
        "resolutions": list(report.resolutions),
        "outside_diffs": list(report.outside_diffs),
        "outside_ratios": list(report.outside_ratios),
        "outside_order": report.outside_order,
        "inside_diffs": list(report.inside_diffs),
        "inside_limit": report.inside_limit,
        "zero_amplitude_diff": report.zero_amplitude_diff,
        "passed": ok,
    }
    _write_json(out / "dod.json", payload)
    print(f"domain of dependence: outside order {report.outside_order:.2f}, "
          f"inside limit {report.inside_limit:.3e} -> {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_convergence(cfg, args) -> int:
    scfg = _solver_config(cfg)
    try:
        report = experiments.convergence_study(
            scfg, resolutions=experiments.CONVERGENCE_RESOLUTIONS)
    except ValueError as exc:          # initial data rejected
        raise ConfigError(str(exc)) from exc
    out = Path(args.out)
    rows = [[name, report.errors_coarse[name], report.errors_fine[name],
             "exact" if report.orders[name] is None else report.orders[name]]
            for name in experiments.FIELD_NAMES]
    _write_csv(out / "convergence.csv",
               ["field", "coarse_error", "fine_error", "order"], rows)
    order = report.observed_order
    ok = report.passed
    payload = {
        "check": "self-convergence",
        "parameters": {"a1": scfg.transport.a1, "a2": scfg.transport.a2},
        "seed": None,
        "tolerances": {"order": list(experiments.ORDER_WINDOW)},
        "resolutions": list(report.resolutions),
        "orders": report.orders,
        "drift": {str(k): v for k, v in report.drift.items()},
        "passed": bool(ok),
    }
    _write_json(out / "convergence.json", payload)
    shown = "exact" if order is None else f"{order:.2f}"
    print(f"self-convergence: observed order {shown} -> {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_oracle_divergence(cfg, args) -> int:
    fields = equations.SinusoidalField(length=cfg["solver"]["length"])
    report = equations.divergence_oracle(fields, cfg.transport_model(),
                                         equations.ORACLE_RESOLUTIONS)
    out = Path(args.out)
    _write_csv(out / "oracle_divergence.csv",
               ["resolution", "max_discrepancy", "constraint_row_max"],
               [[r.resolution, r.max_discrepancy, r.constraint_row_max]
                for r in report.clean])
    _write_json(out / "oracle_divergence.json", report.to_json())
    print(f"divergence oracle: orders {['%.2f' % o for o in report.orders]}, "
          f"mutated order {report.mutated_order:.2f}, mutation amplification "
          f"{report.amplification:.1f}x -> {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


COMMANDS = {
    "gevrey": cmd_gevrey,
    "verify-factorization": cmd_verify_factorization,
    "collapse": cmd_collapse,
    "roots": cmd_roots,
    "causality-scan": cmd_causality_scan,
    "region-map": cmd_region_map,
    "evolve": cmd_evolve,
    "dod-test": cmd_dod_test,
    "convergence": cmd_convergence,
    "oracle-divergence": cmd_oracle_divergence,
}

# the commands that draw seeded samples, and the only ones that take
# --samples and --seed
SUITE_COMMANDS = ("verify-factorization", "collapse", "roots")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are config errors: one line, exit 2."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vecf",
        description="Viscous conformal-fluid numerical laboratory: symbol "
                    "verification, characteristic cones, causality scans, and "
                    "a 1+1D flat-space evolution.")
    parser.add_argument("--config", help="path to an INI-style run configuration")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="override one config value (repeatable)")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name in SUITE_COMMANDS:
            p.add_argument("--samples", type=int, default=None)
            p.add_argument("--seed", type=int, default=None)
        # scalar global flags are accepted after the command too
        p.add_argument("--out", default=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config, args.overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
