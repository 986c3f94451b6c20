import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference import StatePoint, det_time_matrix_formula

from vecf import equations, solver1d
from vecf.characteristics import FLUID_FACTORS, cone_coefficients, cone_xi0
from vecf.constitutive import TransportModel, transport
from vecf.equations import (Scratch, assemble_lower_order, cell_factors, dx4,
                            equation_rows, principal_terms, symbol_apply)
from vecf.solver1d import (FieldGrid, InitialData, SolverAbort, SolverConfig,
                           _fixed_point, _grid_v_max, _own_halos, _rhs, bump_perturbation,
                           constant_state, evolve, gaussian_pulse, make_grid,
                           shear_pulse, step)


def small_cfg(**kw):
    base = dict(transport=TransportModel(a2=6.0), n_cells=64, length=2.0,
                cfl=0.25, t_end=0.05, ic=constant_state())
    base.update(kw)
    return SolverConfig(**base)


def rhs_of(grid, model):
    """_rhs's dt W at a grid's (V, W), in a fresh stage buffer and Scratch."""
    s = np.empty((5,) + grid.V.shape)
    s[0], s[1] = grid.V, grid.W
    return _rhs(s, *_own_halos(s), grid.spacing, model, Scratch())


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(cfl=0.0)
    with pytest.raises(ValueError):
        small_cfg(transport=TransportModel(a1=3.0))
    with pytest.raises(ValueError):
        small_cfg(transport=TransportModel(a2=3.0))


@pytest.mark.parametrize("field,value", [
    ("length", -2.0), ("length", 0.0), ("length", float("inf")), ("length", float("nan")),
    ("t_end", -0.1), ("t_end", 0.0), ("t_end", float("inf")), ("t_end", float("nan")),
    ("output_every", -3),
])
def test_config_rejects_the_run_settings_the_cli_rejects(field, value):
    # config.SCHEMA's bounds: through the API, length = -2 stepped at a
    # negative Courant number, t_end <= 0 stepped backwards or not at all,
    # and output_every = -3 ran as 0
    with pytest.raises(ValueError, match=field):
        small_cfg(**{field: value})


def test_filter_strength_accepts_zero_only():
    # the solver has no filter; 0.0 is still accepted, and changes nothing
    cfg = small_cfg()
    same = small_cfg(ic=cfg.ic, filter_strength=0.0)
    assert same == cfg and hash(same) == hash(cfg)
    assert replace(cfg, t_end=0.1) == small_cfg(ic=cfg.ic, t_end=0.1)
    for strength in (-1.0, 1e-300, 1.0, 4.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="filter_strength"):
            small_cfg(filter_strength=strength)
        with pytest.raises(ValueError, match="filter_strength"):
            replace(cfg, filter_strength=strength)


def test_constant_state_is_fixed_point():
    cfg = small_cfg(ic=constant_state(eps0=1.3))
    grid = make_grid(cfg)
    v0 = grid.V.copy()
    dt = 0.25 * grid.spacing
    for _ in range(300):
        grid = step(grid, cfg, dt)
    assert np.abs(grid.V - v0).max() < 1e-12
    assert np.abs(grid.W).max() < 1e-12


# the case is named for the viscosity law, eta0 * eps**P_EXP
@pytest.mark.parametrize("eta0", [1.0], ids=["power"])
@pytest.mark.parametrize("a2", [4.0, 6.0, 10.0])
@pytest.mark.parametrize("eps0", [1.0, 2.5])
def test_exact_fixed_point_steps_to_itself(eps0, a2, eta0):
    # a constant state whose stencil derivatives round to exactly 0 is a
    # fixed point of step bit for bit, and _fixed_point returns its V
    cfg = small_cfg(transport=TransportModel(a2=a2, eta0=eta0),
                    ic=constant_state(eps0=eps0))
    grid = make_grid(cfg)
    v0 = grid.V.copy()
    for _ in range(10):
        grid = step(grid, cfg, 0.25 * grid.spacing)
    assert np.array_equal(grid.V, v0)
    assert not grid.W.any()
    assert np.array_equal(_fixed_point(cfg), v0)


def test_round_off_derivative_is_not_a_fixed_point():
    # at eps0 = 0.7 the stencil's running sum leaves a derivative of
    # round-off size, so dt W is not exactly 0
    assert _fixed_point(small_cfg(ic=constant_state(eps0=0.7))) is None
    assert _fixed_point(small_cfg(ic=gaussian_pulse())) is None


def test_evolution_is_deterministic():
    cfg = small_cfg(ic=gaussian_pulse(amplitude=0.03), n_cells=128, t_end=0.05)
    a = evolve(cfg)
    b = evolve(cfg)
    assert np.array_equal(a.final, b.final)
    assert a.dt == b.dt


def test_constraint_drift_small_and_refining():
    drifts = {}
    for n in (64, 128):
        cfg = small_cfg(ic=gaussian_pulse(amplitude=0.05), n_cells=n, t_end=0.1)
        drifts[n] = evolve(cfg).drift_max
    assert drifts[128] < drifts[64]
    assert drifts[128] < 1e-5


def test_abort_on_vanishing_eps():
    # amplitude driving eps through zero at t = 0 is rejected outright
    cfg = small_cfg(ic=gaussian_pulse(amplitude=-1.5))
    with pytest.raises(ValueError):
        make_grid(cfg)


@pytest.mark.parametrize("n_cells,members", [(10 ** 13, 1), (solver1d.MAX_CELLS // 2 + 1, 2)])
def test_make_grid_refuses_more_than_max_cells_before_any_array(n_cells, members):
    # the cells of every member count; the bound holds before the grid's x exists
    cfg = small_cfg(n_cells=n_cells)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"the most allowed is {solver1d.MAX_CELLS}"):
            make_grid(cfg, [gaussian_pulse()] * members)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 5
    with pytest.raises(ValueError, match="the most allowed"):
        evolve(cfg, ics=[gaussian_pulse()] * members)


def test_abort_during_run_dumps_state():
    # heavily under-resolved violent data collapses eps during the run
    cfg = small_cfg(ic=gaussian_pulse(amplitude=-0.999, width=0.012),
                    n_cells=24, t_end=2.0, cfl=0.9)
    with pytest.raises(SolverAbort) as err:
        evolve(cfg)
    assert isinstance(err.value.grid, FieldGrid)
    assert err.value.step_index >= 1
    assert err.value.t >= 0.0


def test_solver_abort_pickles_with_its_state():
    grid = make_grid(small_cfg(n_cells=16))
    back = pickle.loads(pickle.dumps(SolverAbort("x", 0.1, 3, grid)))
    assert type(back) is SolverAbort
    assert str(back) == "x at t=0.1 (step 3)"
    assert (back.message, back.t, back.step_index) == ("x", 0.1, 3)
    assert (back.grid.n_cells, back.grid.length, back.grid.t) == (16, grid.length, 0.0)
    assert np.array_equal(back.grid.V, grid.V) and np.array_equal(back.grid.W, grid.W)


def test_cfl_violation_aborts():
    # the run starts at Courant number 0.9999; the pulse speeds the flow up,
    # v_max grows with |w|, and the first diagnostic finds dt v_max / h > 1
    n, a2 = 64, 6.0
    v_rest = np.sqrt(2.0 * (2.0 + a2) / (3.0 * a2))     # sound speed at rest
    h = 2.0 / n
    cfg = small_cfg(transport=TransportModel(a2=a2), n_cells=n, cfl=1.0,
                    t_end=20 * h / v_rest * (1.0 - 1e-4),
                    ic=gaussian_pulse(amplitude=0.2), output_every=5)
    with pytest.raises(SolverAbort, match="CFL violated") as err:
        evolve(cfg)
    assert err.value.step_index == 5
    assert isinstance(err.value.grid, FieldGrid)


def test_degenerate_cell_aborts_in_later_stage():
    # the state passes stage 1, but its W drives u to zero at one cell in
    # stage 2 (V + dt/2 W): there det a = 0, and the stage raises before it
    # divides by a pivot
    cfg = small_cfg()
    grid = make_grid(cfg)
    dt = 2.0 ** -7
    grid.W[0, 5] = -2.0 / dt
    rhs_of(grid, cfg.transport)
    with pytest.raises(ValueError, match="degenerate"):
        step(grid, cfg, dt)


# the bound on the oracle's rows at the solver's acceleration, relative to
# their largest term: a few roundings of the time-matrix solve and of the
# sum; the rows read at most 2 ulps of it at a2 = 4, 6 and 10
ACCELERATION_ROWS_TOL = 32 * np.finfo(float).eps


@pytest.mark.parametrize("a2", [4.0, 6.0, 10.0])
def test_acceleration_solves_the_oracle_rows(monkeypatch, a2):
    # the solver steps the rows that criterion 07 certifies: with _rhs's
    # dt W as the tt pair, equation_rows vanishes at every cell of an
    # ensemble of a sound pulse and a shear pulse (u^2 != 0)
    model = TransportModel(a2=a2)
    cfg = small_cfg(transport=model, n_cells=128)
    grid = make_grid(cfg, [gaussian_pulse(), shear_pulse()])
    h = grid.spacing
    for _ in range(4):
        grid = step(grid, cfg, 0.25 * h)
    pairs = []

    def counting(u, f, batch, x, work=None):
        pairs.extend(batch)
        return symbol_apply(u, f, batch, x, work)

    monkeypatch.setattr(equations, "symbol_apply", counting)
    dtW = rhs_of(grid, model)
    assert pairs == [(0, 1), (1, 1)]
    monkeypatch.undo()

    dxV = dx4(grid.V, h)
    v, w, dxv, dxw, dxxv, dtw = (f.reshape(5, -1) for f in (
        grid.V, grid.W, dxV, dx4(grid.W, h), dx4(dxV, h), dtW))
    assert np.abs(v[2]).max() > 0.0 and np.abs(dtw).max() > 0.0
    u, eps, du, deps = v[:4], v[4], np.stack([w[:4], dxv[:4]]), np.stack([w[4], dxv[4]])
    coeffs = transport(eps, model)
    f = cell_factors(eps, coeffs)
    d2 = principal_terms({(0, 0): dtw, (0, 1): dxw, (1, 1): dxxv})
    rows = equation_rows(u, du, eps, deps, *d2, model, f)
    terms = list(symbol_apply(u, f, *d2))
    terms.append(assemble_lower_order(u, du, eps, deps, model, coeffs))
    assert np.abs(rows).max() <= ACCELERATION_ROWS_TOL * np.abs(terms).max()


def _unit(v):
    v = np.array(v)
    assume(np.linalg.norm(v) >= 1e-3)
    return v / np.linalg.norm(v)


direction = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)


def fluid_speed(a2, w):
    """Largest |slope| of the fluid cones over 720 angles at boost w, from
    cone_xi0 on the (1, 720) grid of a causality scan row."""
    w = np.asarray(w, dtype=float)
    w2 = np.array([[float(w @ w)]])
    thetas = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    speeds = []
    for family in FLUID_FACTORS.families:
        sp, sm, _ = cone_xi0(*cone_coefficients(family, a2), w2, np.sqrt(w2) * np.cos(thetas))
        speeds.append(max(np.abs(sp).max(), np.abs(sm).max()))
    return float(max(speeds))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.just(4.0), st.floats(4.0, 12.0)), st.floats(0.0, 10.0), direction)
# two states where scalar arithmetic at theta = 0 misses the scan's bits
@example(11.659, 4.536, [-0.23, 0.48, 0.87])
@example(9.591, 7.964, [0.95, 0.33, 0.13])
def test_grid_v_max_equals_the_fluid_maximum_over_angles(a2, r, d):
    # the on-axis slopes give the 720-angle maximum bit for bit
    w = r * _unit(d)
    V = np.array([np.sqrt(1.0 + w @ w), *w, 1.0])[:, None]
    grid = FieldGrid(n_cells=1, length=2.0, V=V, W=np.zeros_like(V))
    assert _grid_v_max(grid, TransportModel(a2=a2)) == fluid_speed(a2, w)


@settings(max_examples=60, deadline=None)
@given(st.floats(4.0, 12.0), st.floats(0.0, 3.0), st.floats(0.0, 3.0),
       direction, direction)
def test_max_speed_monotone_in_boost(a2, r1, r2, d1, d2):
    # _grid_v_max evaluates only the cell with the largest |w|: that bounds
    # the grid because the speed grows with |w| whatever the direction
    lo, hi = sorted((r1, r2))
    slow = fluid_speed(a2, lo * _unit(d1))
    fast = fluid_speed(a2, hi * _unit(d2))
    assert slow <= fast + 1e-14


@settings(max_examples=20, deadline=None)
@given(st.floats(4.0, 12.0),
       st.lists(st.floats(-2.0, 2.0), min_size=48, max_size=48))
def test_grid_v_max_bounds_every_cell(a2, ws):
    w = np.array(ws).reshape(3, 16)
    V = np.concatenate([np.sqrt(1.0 + (w * w).sum(0))[None], w,
                        np.ones((1, 16))])
    grid = FieldGrid(n_cells=16, length=2.0, V=V, W=np.zeros_like(V))
    cells = [fluid_speed(a2, V[1:4, j]) for j in range(16)]
    assert abs(_grid_v_max(grid, TransportModel(a2=a2)) - max(cells)) <= 1e-14


def test_diagnostics_fields():
    cfg = small_cfg(ic=gaussian_pulse(amplitude=0.03), output_every=5)
    traj = evolve(cfg)
    d = traj.diagnostics[-1]
    assert d.min_eps > 0.0
    assert d.constraint_drift >= 0.0
    assert np.isfinite(d.energy_integral)
    assert d.min_abs_det_time_matrix > 1e-10


def test_time_matrix_stays_near_closed_form():
    cfg = small_cfg(ic=gaussian_pulse(amplitude=0.05), n_cells=128, t_end=0.1,
                    output_every=10)
    traj = evolve(cfg)
    # in-regime guard: the numeric det never collapses below the rest-state
    # closed form by more than the pulse modulation allows
    rest = det_time_matrix_formula(StatePoint.rest(a2=6.0))
    for d in traj.diagnostics:
        assert d.min_abs_det_time_matrix > 0.5 * rest


def test_snapshot_times():
    cfg = small_cfg(ic=gaussian_pulse(amplitude=0.03), n_cells=64, t_end=0.1)
    traj = evolve(cfg, snapshot_times=[0.05, 0.1])
    assert len(traj.snapshots) == len(traj.times)
    assert traj.times[-1] == pytest.approx(0.1)
    assert any(abs(t - 0.05) < traj.dt for t in traj.times)


def test_energy_converges_and_momentum_vanishes():
    # d_a T^{ab} = 0 on a periodic grid: the drift of the integral of T^{00}
    # is truncation error and falls at fourth order (16x per doubling; 8x
    # asserted), while the integral of T^{01} is zero by the pulse's mirror
    # symmetry about x = 1 and stays at round-off
    drifts = []
    for n in (128, 256, 512):
        cfg = small_cfg(ic=gaussian_pulse(), n_cells=n, t_end=0.5,
                        output_every=n // 16)
        diags = evolve(cfg).diagnostics
        e0 = diags[0].energy_integral
        drifts.append(max(abs(d.energy_integral - e0) for d in diags))
        assert max(abs(d.momentum_integral) for d in diags) <= 1e-13 * e0
    assert all(a >= 8.0 * b for a, b in zip(drifts, drifts[1:]))


def test_shear_pulse_runs():
    cfg = small_cfg(ic=shear_pulse(amplitude=0.05),
                    transport=TransportModel(a2=4.0), n_cells=128, t_end=0.1)
    traj = evolve(cfg)
    assert np.abs(traj.final[2]).max() > 0.0    # u^2 carries the pulse
    assert traj.drift_max < 1e-6


def test_det_shortfall_tracks_constraint_drift():
    # the closed-form determinant assumes normalized u; during a run the
    # numeric determinant trails it by the 1e-8 slack plus a drift-sized
    # coupling (the determinant is degree <= 10 in u^0, so first-order
    # sensitivity is bounded by ~10x the drift), refining away with N
    shortfalls = {}
    for n in (128, 256):
        cfg = small_cfg(ic=gaussian_pulse(amplitude=0.05), n_cells=n,
                        t_end=0.2, output_every=20)
        traj = evolve(cfg)
        worst = max(d.det_shortfall_rel for d in traj.diagnostics)
        shortfalls[n] = worst
        assert worst <= 1e-8 + 10.0 * traj.drift_max
    assert shortfalls[256] < shortfalls[128]


def _bumped(base, *amplitudes):
    """base plus one eps bump per amplitude, each at its own place."""
    return [base] + [bump_perturbation(base, a, center=0.4 + 0.5 * k, radius=0.2)
                     for k, a in enumerate(amplitudes)]


@pytest.mark.parametrize("members", (
    _bumped(constant_state(), 0.02),
    _bumped(constant_state(), 0.02, -0.03, 0.05),
    _bumped(shear_pulse(amplitude=0.05), 0.02, -0.03),
), ids=("constant-2", "constant-4", "shear-3"))
def test_ensemble_members_equal_solo_runs(members):
    # eps bumps leave v_max alone at a1 = 4, so every member steps with its
    # solo dt and its pointwise arithmetic is its solo arithmetic
    cfg = small_cfg(n_cells=64, t_end=0.1, output_every=7)
    trajs = evolve(cfg, snapshot_times=[0.05], ics=members)
    assert len(trajs) == len(members)
    for ic, traj in zip(members, trajs):
        solo = evolve(replace(cfg, ic=ic), snapshot_times=[0.05])
        assert traj.config == solo.config
        assert (traj.dt, traj.v_max, traj.times) == (solo.dt, solo.v_max, solo.times)
        assert all(np.array_equal(a, b) for a, b in zip(traj.snapshots, solo.snapshots))
        assert traj.diagnostics == solo.diagnostics
        assert traj.drift_max == solo.drift_max


def test_zero_amplitude_member_equals_base():
    base = gaussian_pulse(amplitude=0.03)
    cfg = small_cfg(n_cells=64, t_end=0.1, output_every=5)
    first, null = evolve(cfg, ics=[base, bump_perturbation(base, 0.0, 0.5, 0.2)])
    assert np.array_equal(first.final, null.final)
    assert first.diagnostics == null.diagnostics


def test_ensemble_abort_names_the_member():
    # member 1 starts with d_t eps = -1000 on a patch: eps is negative by
    # the second stage of the first step, while members 0 and 2 stay at rest
    def sink(x):
        return np.where(np.abs(x - 1.0) < 0.2, -1000.0, 0.0)
    collapsing = InitialData(name="sink", eps0=np.ones_like, eps1=sink,
                             v0=lambda x: np.zeros((3,) + x.shape),
                             v1=lambda x: np.zeros((3,) + x.shape))
    cfg = small_cfg()
    members = [constant_state(), collapsing, constant_state()]
    with pytest.raises(SolverAbort, match=r"positivity .* in member 1 at") as err:
        evolve(cfg, ics=members)
    assert err.value.step_index == 1
    assert err.value.grid.V.shape == (5, 3, cfg.n_cells)
    with pytest.raises(SolverAbort, match=r"positivity inside a stage at"):
        evolve(replace(cfg, ic=collapsing))


@pytest.mark.filterwarnings("error")
def test_stage_positivity_scan_sees_past_a_nan():
    # member 1 of a stage input holds a NaN and a cell at -1: the scan tests
    # every cell, so the NaN hides no non-positive cell and the member is named
    n = 32
    s = np.zeros((5, 5, 2, n))
    s[0, 0] = 1.0
    s[0, 4] = 1.0
    s[0, 4, 1, 3] = np.nan
    s[0, 4, 1, 7] = -1.0
    with pytest.raises(ValueError, match=r"^energy density lost positivity inside a stage "
                                         r"in member 1$"):
        _rhs(s, *_own_halos(s), 2.0 / n, TransportModel(), Scratch())


def test_stage_positivity_precheck_hands_a_nan_to_the_scan(monkeypatch):
    # one reduction passes a stage input whose eps is positive everywhere,
    # without the per-member scan; a NaN fails it, and the scan, finding no
    # cell at or below zero, lets the stage go on to the det check, which
    # names the NaN's cell
    n = 32
    s = np.zeros((5, 5, 2, n))
    s[0, 0] = 1.0
    s[0, 4] = 1.0
    scans, eps_lost = [], solver1d._eps_lost
    monkeypatch.setattr(solver1d, "_eps_lost", lambda V: scans.append(eps_lost(V)) or scans[-1])
    _rhs(s.copy(), *_own_halos(s), 2.0 / n, TransportModel(), Scratch())
    assert scans == []
    s[0, 4, 1, 3] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match=r"^time-coefficient matrix degenerate: det not finite at 1 "
                              r"cell\(s\) in member 1$"):
        _rhs(s, *_own_halos(s), 2.0 / n, TransportModel(), Scratch())
    assert len(scans) == 1 and not scans[0].any()


def test_a_warm_step_allocates_only_its_returned_grid():
    # dod's N = 512 two-member ensemble: after warm-up steps every stage
    # array and kernel temporary is in the Scratch, so one more step's
    # traced peak is the V and W it returns plus a few KB.  numpy's
    # transient iteration buffers (up to 64 KB) stay below that grid
    cfg = small_cfg(n_cells=512, t_end=0.35)
    ics = [bump_perturbation(cfg.ic, 0.02, c, 0.14) for c in (1.319983164553722, 0.7)]
    grid, work, dt = make_grid(cfg, ics), Scratch(), 0.35 / 338
    for _ in range(3):
        grid = step(grid, cfg, dt, work)
    tracemalloc.start()
    try:
        new = step(grid, cfg, dt, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= new.V.nbytes + new.W.nbytes + 4096


def test_ensemble_det_floor_abort_names_the_member():
    # member 1 has eps = 1e-8 on a patch, where det a ~ 648 eps^2 lies
    # below the det floor: the t = 0 check aborts at step 0 and names it,
    # and its solo run aborts with no member in the message
    def thin(x):
        return np.where(np.abs(x - 1.0) < 0.2, 1e-8, 1.0)
    degenerate = InitialData(name="thin", eps0=thin, eps1=np.zeros_like,
                             v0=lambda x: np.zeros((3,) + x.shape),
                             v1=lambda x: np.zeros((3,) + x.shape))
    cfg = small_cfg()
    members = [constant_state(), degenerate, constant_state()]
    with pytest.raises(SolverAbort, match=r"degenerate: .* <= 1e-10 in member 1 at") as err:
        evolve(cfg, ics=members)
    assert err.value.step_index == 0
    with pytest.raises(SolverAbort, match=r"degenerate: min \|det\| = \S+ <= 1e-10 at t=0 "):
        evolve(replace(cfg, ic=degenerate))


def diagnose_against_the_full_tensor(n_cells):
    """_diagnose's T^{00} and T^{01} integrals, and the full tensor's, on a
    boosted shear pulse after three steps."""
    from vecf.constitutive import stress_tensor_fields
    from vecf.equations import dx4
    from vecf.solver1d import _diagnose
    cfg = small_cfg(n_cells=n_cells, ic=shear_pulse(amplitude=0.5))
    grid = make_grid(cfg)
    for _ in range(3):
        grid = step(grid, cfg, 1e-3)
    u, eps, n = grid.V[:4], grid.V[4], grid.n_cells
    du, deps = np.zeros((4, 4, n)), np.zeros((4, n))
    dxV = dx4(grid.V, grid.spacing)
    du[0], du[1], deps[0], deps[1] = grid.W[:4], dxV[:4], grid.W[4], dxV[4]
    T = stress_tensor_fields(u, du, eps, deps, cfg.transport)
    d = _diagnose(grid, cfg.transport)
    assert np.any(grid.W != 0.0)
    return ((d.energy_integral, d.momentum_integral),
            (float(T[0, 0].sum() * grid.spacing), float(-T[0, 1].sum() * grid.spacing)))


def test_diagnose_integrals_have_the_full_tensors_bits():
    # _diagnose builds the stress tensor's row 0 only; its T^{00} and T^{01}
    # integrals keep the bits of the full tensor's, on a boosted shear pulse
    got, want = diagnose_against_the_full_tensor(256)
    assert got == want


def test_chunked_diagnose_integrals_have_the_full_tensors_bits():
    # above 512 cells _diagnose builds row 0 in chunks of cells (four at
    # N = 2048), and the integrals still keep the full tensor's bits
    got, want = diagnose_against_the_full_tensor(2048)
    assert got == want
