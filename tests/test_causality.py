from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from vecf.causality import (THETAS, _cone_extremes, _fluid_verdict, _verdict, causality_scan,
                            cone_slopes, critical_angle_check, hyperbolicity_region_map,
                            scan_verdict)
from vecf.characteristics import FAMILIES, FLUID_FACTORS, cone_coefficients
from vecf.constitutive import TransportModel
from vecf.solver1d import FieldGrid, _grid_v_max
from vecf.tensor import minkowski


class Cone(NamedTuple):
    max_abs_slope: float
    verdict: str
    witness_theta: float


def cones(a2, w=(0.0, 0.0, 0.0)):
    """Each family's Cone at one boost w, over the 720 angles of THETAS."""
    w = np.asarray(w, dtype=float)
    alpha, beta = zip(*(cone_coefficients(name, a2) for name in FAMILIES))
    smax, theta, _ = _cone_extremes(alpha, beta, [float(w @ w)], THETAS)
    return {name: Cone(s, _verdict(s), t)
            for name, s, t in zip(FAMILIES, smax[:, 0].tolist(), theta[:, 0].tolist())}


def fluid_slopes(fams):
    """The flow, shear and sound slopes that `_fluid_verdict` judges."""
    return [fams[name].max_abs_slope for name in FLUID_FACTORS.families]


def v_max(a2, w=(0.0, 0.0, 0.0)):
    """The solver's CFL speed on a one-cell grid at boost w."""
    w = np.asarray(w, dtype=float)
    V = np.array([np.sqrt(1.0 + w @ w), *w, 1.0])[:, None]
    grid = FieldGrid(n_cells=1, length=1.0, V=V, W=np.zeros_like(V))
    return _grid_v_max(grid, TransportModel(a2=a2))


def test_shear_slopes_rest():
    sp, sm = cone_slopes("shear", 0.0, 0.7, 4.0)
    assert sp == pytest.approx(-0.5, abs=1e-15)
    assert sm == pytest.approx(0.5, abs=1e-15)


def test_shear_slopes_boosted_axis():
    sp, sm = cone_slopes("shear", 1.0, 0.0, 4.0)
    assert sp == pytest.approx(-(2.0 + 3.0 * np.sqrt(2.0)) / 7.0, abs=1e-14)
    assert sm == pytest.approx((2.0 - 3.0 * np.sqrt(2.0)) / 7.0, abs=1e-14)
    assert sm == pytest.approx(-0.32037, abs=1e-5)


def shear_axis_slopes(u2, a2):
    """Shear slopes at theta = 0 (equivalently 2 pi), where R = a2."""
    denom = 1.0 + (a2 - 1.0) * (1.0 + u2)
    drift = (a2 - 1.0) * np.sqrt(u2 * (1.0 + u2))
    return (-(np.sqrt(a2) + drift) / denom, -(-np.sqrt(a2) + drift) / denom)


def test_shear_slope_endpoint_identity():
    # theta = 0 and 2 pi agree with the closed axis form to 1e-12
    for u2 in (0.0, 0.5, 1.0, 4.0, 25.0):
        for a2 in (4.0, 6.0, 9.0):
            axis = shear_axis_slopes(u2, a2)
            for theta in (0.0, 2.0 * np.pi):
                sp, sm = cone_slopes("shear", u2, theta, a2)
                assert abs(sp - axis[0]) < 1e-12
                assert abs(sm - axis[1]) < 1e-12
                assert -1.0 < sp < 1.0 and -1.0 < sm < 1.0


def test_sound_slopes_rest():
    sp, sm = cone_slopes("sound", 0.0, 1.3, 6.0)
    expect = np.sqrt(8.0 / 9.0)
    assert sorted((sp, sm)) == pytest.approx([-expect, expect], abs=1e-14)
    assert expect == pytest.approx(0.94281, abs=1e-5)


def test_sound_slopes_boundary_family_at_a2_4():
    rng = np.random.default_rng(0)
    for _ in range(100):
        u2 = rng.uniform(0.0, 100.0)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        sp, sm = cone_slopes("sound", u2, theta, 4.0)
        assert abs(abs(sp) - 1.0) < 1e-12
        assert abs(abs(sm) - 1.0) < 1e-12


def test_sound_slopes_strict_at_a2_10():
    for u2 in np.linspace(0.0, 100.0, 40):
        thetas = np.linspace(0.0, 2 * np.pi, 25)
        sp, sm = cone_slopes("sound", float(u2), thetas, 10.0)
        assert np.abs(sp).max() < 1.0 and np.abs(sm).max() < 1.0


def test_flow_slope_strictly_inside():
    # the flow cone u.xi = 0 is a double root at -|w| cos(theta) / u^0
    for u2 in (0.0, 1.0, 100.0):
        sp, sm = cone_slopes("flow", u2, 0.0, 6.0)
        assert sp == sm
        assert abs(sp + np.sqrt(u2 / (1.0 + u2))) <= 1e-15
        assert abs(sp) < 1.0


def test_light_slopes_are_unit():
    rng = np.random.default_rng(2)
    sp, sm = cone_slopes("light", rng.uniform(0.0, 100.0), rng.uniform(0.0, 7.0, 50), 6.0)
    assert np.all(sp == -1.0) and np.all(sm == 1.0)


def test_critical_angle_on_axis():
    rng = np.random.default_rng(1)
    for _ in range(100):
        u2 = rng.uniform(0.01, 25.0)
        a2 = rng.uniform(4.0, 12.0)
        family = "shear" if rng.integers(2) else "sound"
        rep = critical_angle_check(u2, a2, family=family)
        assert rep.on_axis
        dist = min(abs(rep.theta_max), abs(rep.theta_max - np.pi),
                   abs(rep.theta_max - 2 * np.pi))
        assert dist < 1e-6


def test_critical_angle_flat_at_rest():
    rep = critical_angle_check(0.0, 4.0, family="shear")
    assert rep.flat_profile


def test_critical_angle_boosted_a2_4():
    rep = critical_angle_check(1.0, 4.0, family="shear")
    assert min(abs(rep.theta_max), abs(rep.theta_max - np.pi),
               abs(rep.theta_max - 2 * np.pi)) < 1e-6


def test_cone_containment_strict():
    fams = cones(6.0)
    assert fams["shear"].max_abs_slope == pytest.approx(1 / np.sqrt(6), abs=1e-12)
    assert fams["sound"].max_abs_slope == pytest.approx(np.sqrt(8 / 9), abs=1e-12)
    assert fams["flow"].verdict == "strict"
    assert fams["light"].verdict == "boundary"
    assert _fluid_verdict(fluid_slopes(fams)) == "causal (strict)"
    rows = causality_scan([6.0], 2.0, n_u=5)
    assert all(r.verdict == "causal (strict)" for r in rows)


def test_cone_containment_boundary_at_a2_4():
    fams = cones(4.0, w=(0.5, -0.2, 0.1))
    assert fams["sound"].verdict == "boundary"
    assert _fluid_verdict(fluid_slopes(fams)) == "causal (boundary)"
    rows = causality_scan([4.0], 2.0, n_u=5)
    assert all(r.verdict == "causal (boundary)" for r in rows)


def test_cone_containment_violated_off_regime():
    fams = cones(3.5, w=(1.0, 0.0, 0.0))
    assert _fluid_verdict(fluid_slopes(fams)) == "violated"
    assert fams["sound"].max_abs_slope > 1.0
    assert np.isfinite(fams["sound"].witness_theta)
    boosted = causality_scan([3.5], 1.0, n_u=2)[-1]
    assert boosted.verdict == "violated"
    assert boosted.smax_p3 == fams["sound"].max_abs_slope


def test_max_speed_rest_a2_4():
    assert v_max(4.0) == pytest.approx(1.0, abs=1e-12)


def test_max_speed_rest_a2_9():
    v = v_max(9.0)
    assert v == pytest.approx(np.sqrt(22.0 / 27.0), abs=1e-12)
    assert v == pytest.approx(0.90267, abs=1e-5)


def test_max_speed_coupled_mode():
    # the light cone, which the gravity-coupled system adds, bounds every
    # fluid speed and is not part of the CFL speed
    light = cones(9.0)["light"].max_abs_slope
    assert light == 1.0
    assert light >= v_max(9.0)


def test_max_speed_rejects_violated():
    with pytest.raises(ValueError, match="not causal"):
        v_max(3.5, w=(1.0, 0, 0))
    with pytest.raises(ValueError, match="not causal"):
        v_max(6.0, w=(np.nan, 0, 0))


def test_sound_speed_monotone_in_a2_at_rest():
    # slope^2 = 2(2+a2)/(3 a2) decreases in a2; check by finite differences
    grid = np.linspace(4.0, 12.0, 17)
    speeds = [cones(a2)["sound"].max_abs_slope for a2 in grid]
    assert all(b <= a + 1e-13 for a, b in zip(speeds, speeds[1:]))
    assert [v_max(a2) for a2 in grid] == speeds     # sound is the fastest at rest


def test_causality_scan_rows():
    rows = causality_scan([4.0, 6.0], u_max=2.0, n_u=5, n_theta=360)
    assert len(rows) == 10
    assert all(r.verdict in ("causal (strict)", "causal (boundary)") for r in rows)
    for r in rows:
        if r.a2 == 6.0:
            assert r.smax_p2 < 1.0 and r.smax_p3 < 1.0
        else:
            assert abs(r.smax_p3 - 1.0) < 1e-12
    again = causality_scan([4.0, 6.0], u_max=2.0, n_u=5, n_theta=360)
    assert rows == again            # deterministic row ordering and values


def test_region_map_labels():
    cells = hyperbolicity_region_map([4.0], [4.0, 6.0])
    by_a2 = {c.a2: c for c in cells}
    assert by_a2[4.0].label == "causal-boundary"
    assert by_a2[6.0].label == "causal-strict"


def test_region_map_causal_row():
    cells = hyperbolicity_region_map([4.0], np.linspace(4.0, 12.0, 9))
    assert all(c.label in ("causal-strict", "causal-boundary") for c in cells)


def test_region_map_off_regime_exploratory():
    # no causality claim off the a1 = 4 row; the scan just reports labels
    cells = hyperbolicity_region_map([1.0, 2.0, 6.0], [2.0, 6.0])
    assert all(c.label in ("causal-strict", "causal-boundary",
                           "hyperbolic-acausal", "non-hyperbolic")
               for c in cells)


def reference_containment(a2, w, n_theta):
    """Each family's cone at boost w as one scalar cone_xi0 call: per
    family (max |slope|, verdict, witness theta), and the fluid verdict."""
    from vecf.characteristics import cone_xi0
    w = np.asarray(w, dtype=float)
    u2 = float(w @ w)
    thetas = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    wxi = np.sqrt(u2) * np.cos(thetas)
    fams = {}
    for name in FAMILIES:
        try:
            sp, sm, _ = cone_xi0(*cone_coefficients(name, a2), u2, wxi)
        except ValueError:
            fams[name] = (np.inf, "violated", np.nan)
            continue
        vals = np.maximum(np.abs(sp), np.abs(sm))
        j = int(np.argmax(vals))
        fams[name] = (float(vals[j]), _verdict(float(vals[j])), float(thetas[j]))
    fluid = [fams[k][1] for k in ("flow", "shear", "sound")]
    verdict = ("violated" if "violated" in fluid else
               "causal (boundary)" if "boundary" in fluid else "causal (strict)")
    return fams, verdict


def reference_scan(a2_list, u_max, n_u, n_theta, a1=4.0):
    """causality_scan one (a2, |w|) state at a time."""
    rows = []
    for a2 in a2_list:
        for w in np.linspace(0.0, u_max, n_u):
            fams, verdict = reference_containment(a2, [w, 0.0, 0.0], n_theta)
            rows.append((a1, float(a2), float(w * w), fams["shear"][2], fams["shear"][0],
                         fams["sound"][0], verdict))
    return rows


@pytest.mark.parametrize("a2_list,u_max,n_u,n_theta", [
    ((4.0, 5.0, 6.0, 8.0, 10.0), 10.0, 41, 720),
    ((3.0, 3.5, 4.0, 6.0), 6.0, 7, 90),      # a2 = 3: D = 0 at |w| = 3, R < 0 beyond
    ((6.0, 4.0, 6.0), 3.0, 5, 90),           # a repeated a2 reuses its cones
])
def test_causality_scan_matches_per_state_reference(a2_list, u_max, n_u, n_theta):
    rows = causality_scan(a2_list, u_max, n_u=n_u, n_theta=n_theta)
    got = [(r.a1, r.a2, r.u2, r.theta_max_p2, r.smax_p2, r.smax_p3, r.verdict) for r in rows]
    assert repr(got) == repr(reference_scan(a2_list, u_max, n_u, n_theta))


def test_scan_verdict_judges_criterion_04s_rules():
    assert scan_verdict(causality_scan([4.0, 6.0], 10.0, n_u=9, n_theta=90)).passed
    # the sound cone leaves the light cone below a2 = 4
    assert not scan_verdict(causality_scan([3.0], 6.0, n_u=7, n_theta=90)).passed
    # away from a2 = 4 the sound cone must lie strictly inside
    rows = causality_scan([6.0], 10.0, n_u=9, n_theta=90)
    touching = [replace(r, smax_p3=1.0) if i == 3 else r for i, r in enumerate(rows)]
    assert not scan_verdict(touching).passed


def test_causality_scan_finds_the_violated_rows_of_a_failing_chunk():
    rows = causality_scan([3.0], 6.0, n_u=7, n_theta=90)
    assert [r.verdict for r in rows][3:] == ["violated"] * 4
    assert all(r.smax_p3 == np.inf for r in rows[3:])
    assert all(np.isfinite(r.smax_p3) for r in rows[:3])


def test_cone_containment_matches_reference():
    rng = np.random.default_rng(5)
    for _ in range(30):
        a2, w = rng.uniform(2.5, 12.0), rng.uniform(-3.0, 3.0, 3)
        fams, verdict = reference_containment(a2, w, 720)
        got = cones(a2, w)
        assert _fluid_verdict(fluid_slopes(got)) == verdict
        got = {k: (c.max_abs_slope, c.verdict, c.witness_theta) for k, c in got.items()}
        assert repr(got) == repr(fams)


def reference_factor_slopes(r, u_samples, n_theta):
    """(hyperbolic, max |slope|) of the factor (u.xi)^2 - r xi.xi, on a
    (boost, angle) grid of its own."""
    from vecf.characteristics import DISTINCTNESS_GAP, cone_xi0
    flow = abs(r) < 1e-12
    thetas = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    u2 = np.asarray(u_samples, dtype=float)[:, None]
    try:
        s1, s2, _ = cone_xi0(1.0, 0.0 if flow else r, u2, np.sqrt(u2) * np.cos(thetas))
    except ValueError:
        return False, np.inf
    if not flow and np.any(np.abs(s1 - s2) < DISTINCTNESS_GAP):
        return False, np.inf
    return True, float(max(np.abs(s1).max(), np.abs(s2).max()))


def reference_region_map(a1_grid, a2_grid, u_samples, n_theta):
    """hyperbolicity_region_map one (a1, a2) cell at a time, each factor
    sampled on a grid of its own."""
    from vecf.causality import BOUNDARY_TOL
    from vecf.characteristics import quartic_coefficients
    cells = []
    for a1 in a1_grid:
        for a2 in a2_grid:
            co = quartic_coefficients(float(a1), float(a2), np.array([1.0, 0.0, 0.0, 0.0]),
                                      minkowski())
            A, B, C = co.A, co.B, co.C
            scale = max(1.0, abs(A), abs(B), abs(C))
            factors, light = [], 0
            if abs(A) > 1e-9 * scale:
                disc = B * B - 4.0 * A * C
                if disc < 0.0:
                    cells.append((float(a1), float(a2), "non-hyperbolic", np.inf))
                    continue
                rd = np.sqrt(disc)
                factors = [(-B + rd) / (2.0 * A), (-B - rd) / (2.0 * A)]
            elif abs(B) > 1e-9 * scale:
                light, factors = 1, [-C / B]
            elif abs(C) > 1e-9 * scale:
                light = 2
            else:
                cells.append((float(a1), float(a2), "non-hyperbolic", np.inf))
                continue
            smax = 1.0 if light else 0.0
            hyperbolic = True
            for r in factors:
                ok, fmax = reference_factor_slopes(float(r), list(u_samples), n_theta)
                if not ok:
                    hyperbolic = False
                    break
                smax = max(smax, fmax)
            if not hyperbolic:
                label, smax = "non-hyperbolic", np.inf
            elif smax > 1.0 + BOUNDARY_TOL:
                label = "hyperbolic-acausal"
            elif smax >= 1.0 - BOUNDARY_TOL:
                label = "causal-boundary"
            else:
                label = "causal-strict"
            cells.append((float(a1), float(a2), label, float(smax)))
    return cells


# A = 4 (a1 a2 - 3 a1 - a2), B = -4 (3 a1 + 2 a2 + a1 a2) and C = a2 (a1 - 4)
# at u = e0: this grid crosses A = 0 (a1 = a2 / (a2 - 3)), C = 0 (a1 = 4),
# both (4, 4), A = B = 0 (-0.5, 1) and A = B = C = 0 (0, 0)
CROSSING = ([-0.5, 0.0, 1.5, 2.0, 2.5, 4.0, 12.0 / 9.0], [0.0, 1.0, 4.0, 5.0, 6.0, 9.0, 12.0])


@pytest.mark.parametrize("a1_grid,a2_grid,u_samples,n_theta", [
    pytest.param(np.linspace(1.0, 6.0, 11), np.linspace(1.0, 12.0, 12),
                 (0.0, 0.25, 1.0, 4.0), 64, id="a1_grid0-a2_grid0"),
    pytest.param(np.linspace(0.0, 8.0, 17), np.linspace(0.5, 14.0, 28),
                 (0.0, 0.25, 1.0, 4.0), 64, id="a1_grid1-a2_grid1"),
    pytest.param(*CROSSING, (0.0, 0.25, 1.0, 4.0), 64, id="crossing"),
    pytest.param(*CROSSING, (0.0, 0.5, 2.0, 9.0, 30.0), 37, id="crossing-5x37"),
    # 1440 values per factor: chunks of 5 factors
    pytest.param(np.linspace(1.0, 6.0, 11), np.linspace(1.0, 12.0, 12),
                 (3.0, 100.0), 720, id="default-2x720"),
])
def test_region_map_matches_per_cell_reference(a1_grid, a2_grid, u_samples, n_theta):
    cells = hyperbolicity_region_map(a1_grid, a2_grid, u_samples=list(u_samples),
                                     n_theta=n_theta)
    got = [(c.a1, c.a2, c.label, c.max_abs_slope) for c in cells]
    assert repr(got) == repr(reference_region_map(a1_grid, a2_grid, u_samples, n_theta))


def test_region_map_root_calls_do_not_grow_with_the_cells(monkeypatch):
    # the factors of every cell are classified together: one closed-form
    # root call per chunk of BATCH_VALUES values; a light-cone factor is a
    # cone like any other, with no scalar call of its own
    from vecf import causality
    from vecf.characteristics import BATCH_VALUES
    calls = []

    def counting(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(causality, "cone_pair", counting("pair", causality.cone_pair))
    monkeypatch.setattr(causality, "cone_xi0", counting("xi0", causality.cone_xi0))
    counts = {}
    for n in (2, 4, 12, 24):
        calls.clear()
        hyperbolicity_region_map(np.linspace(1.0, 6.0, n), np.linspace(1.0, 12.0, n))
        counts[n * n] = (calls.count("xi0"), calls.count("pair"))
    # at most two factors per cell, each on the 4 x 64 (boost, angle) grid
    assert all(xi0 == 0 and pair <= -(-2 * c * 256 // BATCH_VALUES)
               for c, (xi0, pair) in counts.items())
    assert counts[4] == counts[16] == (0, 1)
