"""Acceptance gate: every headline criterion at its stated tolerance.

One test per criterion, each printing a single PASS/FAIL line with the
measured numbers (run with -s to see the lines for passing tests).  The
heavy solver-based criteria share runs where their statements allow it.
"""

import time

import numpy as np

from vecf.causality import (BOUNDARY_TOL, SCAN_A2, SCAN_U_MAX, causality_scan,
                            cone_slopes, critical_angle_check, scan_verdict)
from vecf.characteristics import gevrey_check
from vecf.constitutive import SGN, TransportModel, stress_tensor_fields
from vecf.equations import ORACLE_RESOLUTIONS, ORDER_WINDOW, SinusoidalField, divergence_oracle
from vecf.experiments import (CONVERGENCE_RESOLUTIONS, DOD_OUTSIDE_RATIO_MIN, DOD_PROBE_T,
                              DOD_PROBE_X, DOD_RESOLUTIONS, convergence_study,
                              dod_experiment, pulse_speed_experiment)
from vecf.solver1d import SolverConfig, constant_state, gaussian_pulse, make_grid, step
from vecf.verification import (collapse_suite, factorization_suite, roots_suite,
                               time_matrix_suite)


def report(number: int, name: str, passed: bool, detail: str):
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert passed, line


def test_criterion_01_determinant_factorization():
    rep = factorization_suite(samples=10000, seed=7)
    report(1, "determinant-factorization",
           rep.passed and rep.runtime_seconds <= 30.0,
           f"max scaled error {rep.max_scaled_error:.2e} <= {rep.tolerance:.0e}, "
           f"runtime {rep.runtime_seconds:.1f}s <= 30s, {rep.samples} samples")


def test_criterion_02_general_quartic_collapse():
    rep = collapse_suite(samples=1000, seed=11)
    off = ", ".join(f"{k}: {v:.3g}" for k, v in rep.c_off_values.items())
    report(2, "general-quartic-collapse", rep.passed,
           f"max rel error {rep.max_relative_error:.2e} <= {rep.tolerance:.0e}, "
           f"|C(a1=4)| = {abs(rep.c_at_a1_4):.1e} <= {rep.c_zero_tolerance:.0e}, "
           f"nonzero off-regime: {off}")


def test_criterion_03_root_formulas():
    rep = roots_suite(samples=1000, seed=13)
    report(3, "closed-form-roots", rep.passed,
           f"max |closed-numeric| {max(rep.max_root_error.values()):.2e} "
           f"<= {rep.tolerance:.0e}, "
           f"min gap {min(rep.min_gap.values()):.2e} >= {rep.gap_tolerance:.0e}, "
           f"failures {rep.failures}")


def test_criterion_04_causality_slopes():
    verdict = scan_verdict(causality_scan(SCAN_A2, SCAN_U_MAX))   # |w| up to 10
    ok = verdict.passed
    details = [f"a2={a2:g}: shear {verdict.max_shear[a2]:.6f}, "
               f"sound {verdict.max_sound[a2]:.9f}" for a2 in SCAN_A2]
    # theta extremizer on the axis
    rng = np.random.default_rng(19)
    for _ in range(40):
        u2 = rng.uniform(0.01, 25.0)
        a2 = rng.uniform(4.0, 12.0)
        rep = critical_angle_check(u2, a2, family="shear")
        ok &= rep.on_axis
        rep = critical_angle_check(u2, a2, family="sound")
        ok &= rep.on_axis
    # rest-state speeds reproduced to BOUNDARY_TOL by the slope functions
    for a2 in SCAN_A2:
        sp, _ = cone_slopes("shear", 0.0, 0.0, a2)
        ok &= abs(abs(float(sp)) - 1.0 / np.sqrt(a2)) <= BOUNDARY_TOL
        sp, _ = cone_slopes("sound", 0.0, 0.0, a2)
        ok &= abs(abs(float(sp)) - np.sqrt(2.0 * (2.0 + a2) / (3.0 * a2))) <= BOUNDARY_TOL
    report(4, "causality-slopes", bool(ok), "; ".join(details))


def test_criterion_05_gevrey_indices():
    rep = gevrey_check()
    report(5, "gevrey-indices", rep.passed,
           f"fluid {rep.fluid}, coupled {rep.coupled}, exact rationals")


def test_criterion_06_time_matrix_determinant():
    rep = time_matrix_suite(samples=1000, seed=17)
    report(6, "time-matrix-determinant", rep.passed,
           f"max rel error {rep.max_relative_error:.2e} <= {rep.tolerance:.0e}, "
           f"min closed-form value {rep.min_closed_form:.3e} > 0")


def test_criterion_07_divergence_oracle():
    rep = divergence_oracle(SinusoidalField(length=2.0 * np.pi),
                            TransportModel(a1=4.0, a2=6.0), ORACLE_RESOLUTIONS)
    report(7, "divergence-oracle", rep.passed,
           f"orders {['%.2f' % o for o in rep.orders]} in {list(ORDER_WINDOW)} over three "
           f"doublings; mutated order {rep.mutated_order:.2f}, amplification "
           f"{rep.amplification:.0f}x")


def test_criterion_08a_constant_state():
    cfg = SolverConfig(transport=TransportModel(a2=6.0), n_cells=64, length=2.0,
                       t_end=1.0, ic=constant_state(eps0=1.3))
    grid = make_grid(cfg)
    v0 = grid.V.copy()
    dt = 0.25 * grid.spacing
    for _ in range(1000):
        grid = step(grid, cfg, dt)
    drift = float(np.abs(grid.V - v0).max())
    report(8, "solver-a-constant-state", drift < 1e-12,
           f"max field drift {drift:.2e} < 1e-12 over 1000 steps")


_CONVERGENCE_CACHE = {}


def _shared_convergence():
    if "run" not in _CONVERGENCE_CACHE:
        cfg = SolverConfig(transport=TransportModel(a2=6.0), n_cells=256,
                           length=2.0, t_end=0.5,
                           ic=gaussian_pulse(amplitude=0.05, width=0.1))
        _CONVERGENCE_CACHE["run"] = convergence_study(
            cfg, resolutions=CONVERGENCE_RESOLUTIONS)
    return _CONVERGENCE_CACHE["run"]


def test_criterion_08b_constraint_drift():
    rep = _shared_convergence()
    drift512 = rep.drift[512]
    orders = rep.drift_orders()
    ok = drift512 <= 1e-6 and all(3.25 <= o <= 4.75 for o in orders)
    report(8, "solver-b-constraint-drift", ok,
           f"drift(N=512, t<=0.5) = {drift512:.2e} <= 1e-6; "
           f"refinement orders {['%.2f' % o for o in orders]} ~ 4")


def test_criterion_08c_pulse_speeds():
    sound = pulse_speed_experiment("sound", a2=6.0, n_cells=1024)
    shear = pulse_speed_experiment("shear", a2=4.0, n_cells=1024)
    ok = sound.relative_error < 0.10 and shear.relative_error < 0.10
    report(8, "solver-c-pulse-speeds", ok,
           f"sound {sound.measured_speed:.4f} vs {sound.expected_speed:.4f} "
           f"({100 * sound.relative_error:.1f}%); shear {shear.measured_speed:.4f} "
           f"vs {shear.expected_speed:.4f} ({100 * shear.relative_error:.1f}%)")


def test_criterion_08d_self_convergence():
    rep = _shared_convergence()
    order = rep.observed_order
    shown = "exact" if order is None else f"{order:.2f}"
    report(8, "solver-d-self-convergence", rep.passed,
           f"observed order {shown} in {list(ORDER_WINDOW)}")


def test_criterion_09_domain_of_dependence():
    t0 = time.perf_counter()
    cfg = SolverConfig(transport=TransportModel(a2=6.0), n_cells=128, length=2.0,
                       t_end=DOD_PROBE_T, ic=constant_state())
    rep = dod_experiment(cfg, probe_t=DOD_PROBE_T, probe_x=DOD_PROBE_X,
                         resolutions=DOD_RESOLUTIONS)
    elapsed = time.perf_counter() - t0
    ratios = rep.outside_ratios
    ok = rep.passed and elapsed <= 300.0
    report(9, "domain-of-dependence", ok,
           f"outside ratios {['%.1f' % r for r in ratios]} "
           f"(>= {DOD_OUTSIDE_RATIO_MIN:g} each, "
           f"mean order {rep.outside_order:.2f}); inside limit "
           f"{rep.inside_limit:.3e} stable; zero-amplitude diff "
           f"{rep.zero_amplitude_diff}; runtime {elapsed:.0f}s <= 300s")


def test_criterion_10_trace_free_stress():
    rng = np.random.default_rng(23)
    n = 10000
    w = rng.uniform(-2.0, 2.0, (3, n))
    u = np.concatenate([np.sqrt(1.0 + np.einsum('in,in->n', w, w))[None], w])
    du = rng.uniform(-1.0, 1.0, (4, 4, n))
    # normalized jets: d(u.u) = 0 up to the lift of the u^0 gradient
    du[:, 0, :] = np.einsum('in,ain->an', w, du[:, 1:, :]) / u[0]
    eps = rng.uniform(0.5, 2.0, n)
    deps = rng.uniform(-1.0, 1.0, (4, n))
    T = stress_tensor_fields(u, du, eps, deps,
                             TransportModel(a1=4.0, a2=7.0))
    trace = np.einsum('a,aan->n', SGN, T)
    bound = 1e-10 * np.abs(T).max(axis=(0, 1))
    worst = float((np.abs(trace) / bound).max())
    report(10, "trace-free-stress", bool(np.all(np.abs(trace) <= bound)),
           f"max |trace|/bound = {worst:.3f} over {n} normalized jets "
           f"(bound 1e-10 max|T|)")
