"""The lean RK4 step: the bits of the step it replaced, no workspace
leaking out of it, and no heap re-faulting in the domain-of-dependence
caller's evolve."""

import subprocess
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
import reference

from vecf import experiments, solver1d
from vecf.constitutive import TransportModel, transport
from vecf.equations import (MUTATION_KEYS, Scratch, SinusoidalField, assemble_lower_order,
                            cell_factors, equation_rows, principal_terms, symbol_apply,
                            time_matrix_solve)
from vecf.solver1d import (InitialData, SolverAbort, SolverConfig, _fixed_point,
                           bump_perturbation, constant_state, evolve, gaussian_pulse,
                           make_grid, shear_pulse, step)

ROOT = Path(__file__).resolve().parents[1]


def cfg_of(**kw):
    base = dict(transport=TransportModel(a2=6.0), n_cells=64, length=2.0, cfl=0.25,
                t_end=0.1, ic=constant_state(), output_every=4)
    base.update(kw)
    return SolverConfig(**base)


# dod_experiment's three members on its first grid, placed as it places
# them for the probe (0.35, 0.7) at a2 = 6: the outside and the inside bump,
# and the zero-amplitude bump
DOD_MEMBERS = [bump_perturbation(constant_state(), amp, c, 0.14) for amp, c in
               ((0.02, 1.319983164553722), (0.02, 0.7), (0.0, 1.319983164553722))]


CASES = {
    "eps0=1": (cfg_of(), None),
    "eps0=0.7": (cfg_of(ic=constant_state(eps0=0.7)), None),
    "gaussian": (cfg_of(n_cells=128, ic=gaussian_pulse()), None),
    "shear": (cfg_of(n_cells=128, ic=shear_pulse()), None),
    "dod-64": (cfg_of(t_end=0.35, output_every=0), DOD_MEMBERS),
    "dod-128": (cfg_of(n_cells=128, t_end=0.35, output_every=0), DOD_MEMBERS),
}


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def trajectory_bits(traj) -> list:
    return ([bits(traj.times), bits([traj.drift_max, traj.v_max, traj.dt])]
            + [bits(v) for v in traj.snapshots]
            + [bits(astuple(d)) for d in traj.diagnostics])


def reference_step(grid, cfg, dt, work=None):
    return reference.step(grid, cfg, dt)


@pytest.mark.parametrize("case", list(CASES))
def test_evolve_keeps_the_reference_steps_bits(monkeypatch, case):
    cfg, ics = CASES[case]
    runs = [evolve(cfg, ics=ics)]
    monkeypatch.setattr(solver1d, "step", reference_step)
    runs.append(evolve(cfg, ics=ics))
    new, ref = ([r] if ics is None else r for r in runs)
    assert len(new) == len(ref) == (1 if ics is None else len(ics))
    for a, b in zip(new, ref):
        got, want = trajectory_bits(a), trajectory_bits(b)
        assert len(got) == len(want) > 3
        assert all(np.array_equal(x, y) for x, y in zip(got, want))


@pytest.mark.parametrize("case", list(CASES))
def test_fixed_point_keeps_its_result(case):
    cfg, _ = CASES[case]
    got, want = _fixed_point(cfg), reference._fixed_point(cfg)
    assert (got is None) == (want is None)
    if got is not None:
        assert np.array_equal(bits(got), bits(want))


def test_dod_experiment_keeps_its_report(monkeypatch):
    cfg = cfg_of(t_end=0.35)
    new = experiments.dod_experiment(cfg, probe_t=0.35, probe_x=0.7, resolutions=(64, 128))
    monkeypatch.setattr(solver1d, "step", reference_step)
    ref = experiments.dod_experiment(cfg, probe_t=0.35, probe_x=0.7, resolutions=(64, 128))
    fields = ("outside_diffs", "inside_diffs", "zero_amplitude_diff", "v_max")
    for name in fields:
        assert np.array_equal(bits(getattr(new, name)), bits(getattr(ref, name))), name


def kick_eps_rate(rate: float) -> InitialData:
    """The constant state with d_t eps = rate at cell 5."""
    base = constant_state()
    return replace(base, eps1=lambda x: np.where(np.arange(x.size) == 5, rate, 0.0))


@pytest.mark.parametrize("rate_dt,calls,step_index", [(-4.0, 2, 1), (-1.99, 7, 2)])
def test_an_abort_inside_a_step_keeps_the_pre_step_grid(monkeypatch, rate_dt, calls,
                                                        step_index):
    # d_t eps = rate_dt / dt at one cell turns eps negative in stage 2 of
    # step 1, or in stage 3 of step 2 (the seventh right-hand side)
    cfg = cfg_of(n_cells=32, t_end=0.05)
    dt = cfg.t_end / np.ceil(cfg.t_end / (cfg.cfl * (cfg.length / cfg.n_cells)
                                          / solver1d._grid_v_max(make_grid(cfg), cfg.transport)))
    cfg = replace(cfg, ic=kick_eps_rate(rate_dt / dt))
    seen = []
    rhs = solver1d._rhs

    def counting(*args):
        seen.append(None)
        return rhs(*args)

    monkeypatch.setattr(solver1d, "_rhs", counting)
    with pytest.raises(SolverAbort, match="inside a stage") as err:
        evolve(cfg)
    monkeypatch.undo()
    assert len(seen) == calls and err.value.step_index == step_index
    grid = err.value.grid
    V, W = grid.V.copy(), grid.W.copy()
    pre = make_grid(cfg, [cfg.ic])
    for _ in range(step_index - 1):
        pre = step(pre, cfg, dt)
    assert np.array_equal(V, pre.V) and np.array_equal(W, pre.W)
    # later steps and evolves in this process leave the dumped grid alone
    other = make_grid(replace(cfg, ic=gaussian_pulse()))
    work = Scratch()
    for _ in range(3):
        other = step(other, cfg, dt, work)
    evolve(replace(cfg, ic=gaussian_pulse()))
    evolve(cfg, ics=[gaussian_pulse(), shear_pulse()])
    assert np.array_equal(grid.V, V) and np.array_equal(grid.W, W)


def test_results_are_not_views_of_the_workspace(monkeypatch):
    made = []

    class Recording(Scratch):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(solver1d, "Scratch", Recording)
    cfg = cfg_of(ic=gaussian_pulse(), output_every=2)
    traj = evolve(cfg, snapshot_times=[0.03, 0.06])
    finals = experiments._member_finals(cfg, [gaussian_pulse(), shear_pulse()])
    assert len(made) == 2
    held = [a for work in made for a in (work._flat, *work._kept.values())]
    assert len(held) > 8
    kept = [v.copy() for v in traj.snapshots + finals]
    for v in traj.snapshots + finals:
        assert not any(np.shares_memory(v, a) for a in held)
    evolve(cfg, ics=[gaussian_pulse(), shear_pulse()])
    assert all(np.array_equal(a, b) for a, b in zip(traj.snapshots + finals, kept))


# the case is named for the viscosity law, eta0 * eps**P_EXP
@pytest.mark.parametrize("eta0", [0.3], ids=["power"])
def test_kernels_keep_the_one_pair_bits(eta0):
    # the pairs batched in one pass and the shared factors give each pair,
    # the time-matrix solve and the oracle's rows the bits they had
    rng = np.random.default_rng(5)
    n = 257
    model = TransportModel(a2=7.0, eta0=eta0)
    w = rng.uniform(-2.0, 2.0, (3, n))
    u = np.concatenate([np.sqrt(1.0 + np.einsum('in,in->n', w, w))[None], w])
    eps = rng.uniform(0.1, 10.0, n)
    coeffs = transport(eps, model)
    f = cell_factors(eps, coeffs)
    pairs = [(a, c) for a in range(4) for c in range(4)]
    x = rng.standard_normal((len(pairs), 5, n))
    got = symbol_apply(u, f, pairs, x)
    for i, (a, c) in enumerate(pairs):
        want = reference.symbol_apply(u, eps, *coeffs, a, c, x[i])
        assert np.array_equal(bits(got[i]), bits(want))
    for r in (None, x[0]):
        new = time_matrix_solve(u, f, r, det_floor=1e-10)
        old = reference.time_matrix_solve(u, eps, *coeffs, r, det_floor=1e-10)
        assert np.array_equal(bits(new[1]), bits(old[1]))
        assert (new[0] is None) == (old[0] is None)
        if r is not None:
            assert np.array_equal(bits(new[0]), bits(old[0]))
    fields = SinusoidalField(length=2.0)
    u, du, eps, deps, d2 = fields.jet2(0.37, np.arange(64) * (2.0 / 64))
    coeffs = transport(eps, model)
    new = equation_rows(u, du, eps, deps, *principal_terms(d2), model, cell_factors(eps, coeffs))
    want = reference.equation_rows(u, du, eps, deps, d2, model, coeffs)
    assert np.array_equal(bits(new), bits(want))


@pytest.mark.parametrize("k", [2, 4])
def test_lower_order_terms_keep_their_bits_in_a_reused_scratch(k):
    # every mutation, on two jets in turn through one Scratch
    rng = np.random.default_rng(9 + k)
    model = TransportModel(a2=5.0, eta0=0.7)
    work = Scratch()
    for _ in range(2):
        n = 96
        w = rng.uniform(-1.0, 1.0, (3, n))
        u = np.concatenate([np.sqrt(1.0 + np.einsum('in,in->n', w, w))[None], w])
        du, eps, deps = (rng.uniform(-1.0, 1.0, (k, 4, n)), rng.uniform(0.5, 2.0, n),
                         rng.uniform(-1.0, 1.0, (k, n)))
        coeffs = transport(eps, model)
        for mutation in [None] + [(key, 1.01) for key in MUTATION_KEYS]:
            got = assemble_lower_order(u, du, eps, deps, model, coeffs, mutation, work)
            want = reference.assemble_lower_order(u, du, eps, deps, model, coeffs, mutation)
            assert np.array_equal(bits(got), bits(want)), mutation


# 40 steps of dod's N = 512 two-member ensemble after 20 warm-up steps, in
# a fresh process that imports only vecf.  On Linux x86-64 (2 vCPUs,
# Python 3.11.7, numpy 2.4.6) they took 3440 to 10040 minor page faults
# (86 to 251 a step, by the process's imports and hash seed) for the step
# that formed every stage array and kernel temporary anew, as glibc
# trimmed and regrew the heap around them, and 0 with the Scratch.
FAULT_SCRIPT = """
import resource
from vecf import solver1d
from vecf.constitutive import TransportModel
cfg = solver1d.SolverConfig(transport=TransportModel(a2=6.0), n_cells=512, length=2.0,
                            t_end=0.35, ic=solver1d.constant_state())
ics = [solver1d.bump_perturbation(cfg.ic, 0.02, c, 0.14) for c in (1.319983164553722, 0.7)]
grid = solver1d.make_grid(cfg, ics)
work = solver1d.Scratch()
dt = 0.35 / 338
for _ in range(20):
    grid = solver1d.step(grid, cfg, dt, work)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(40):
    grid = solver1d.step(grid, cfg, dt, work)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
FAULTS_MAX = 400


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
def test_dod_steps_do_not_refault_the_heap():
    out = subprocess.run([sys.executable, "-c", FAULT_SCRIPT], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={"PYTHONPATH": str(ROOT / "src"), "OMP_NUM_THREADS": "1"})
    assert int(out.stdout.split()[-1]) <= FAULTS_MAX
