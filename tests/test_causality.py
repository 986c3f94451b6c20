import numpy as np
import pytest

from vecf.causality import (cone_containment, cone_slopes, causality_scan,
                            critical_angle_check, hyperbolicity_region_map,
                            max_characteristic_speed, shear_slopes, sound_slopes)
from vecf.constitutive import TransportModel
from vecf.symbol import StatePoint
from vecf.tensor import minkowski


def state(a2, w=(0.0, 0.0, 0.0)):
    w = np.asarray(w, dtype=float)
    return StatePoint(eps=1.0, u=np.array([np.sqrt(1.0 + w @ w), *w]),
                      g=minkowski(), transport=TransportModel(a2=a2))


def test_shear_slopes_rest():
    sp, sm = shear_slopes(0.0, 0.7, 4.0)
    assert sp == pytest.approx(-0.5, abs=1e-15)
    assert sm == pytest.approx(0.5, abs=1e-15)


def test_shear_slopes_boosted_axis():
    sp, sm = shear_slopes(1.0, 0.0, 4.0)
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
                sp, sm = shear_slopes(u2, theta, a2)
                assert abs(sp - axis[0]) < 1e-12
                assert abs(sm - axis[1]) < 1e-12
                assert -1.0 < sp < 1.0 and -1.0 < sm < 1.0


def test_sound_slopes_rest():
    sp, sm = sound_slopes(0.0, 1.3, 6.0)
    expect = np.sqrt(8.0 / 9.0)
    assert sorted((sp, sm)) == pytest.approx([-expect, expect], abs=1e-14)
    assert expect == pytest.approx(0.94281, abs=1e-5)


def test_sound_slopes_boundary_family_at_a2_4():
    rng = np.random.default_rng(0)
    for _ in range(100):
        u2 = rng.uniform(0.0, 100.0)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        sp, sm = sound_slopes(u2, theta, 4.0)
        assert abs(abs(sp) - 1.0) < 1e-12
        assert abs(abs(sm) - 1.0) < 1e-12


def test_sound_slopes_strict_at_a2_10():
    for u2 in np.linspace(0.0, 100.0, 40):
        thetas = np.linspace(0.0, 2 * np.pi, 25)
        sp, sm = sound_slopes(float(u2), thetas, 10.0)
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
    rep = cone_containment(state(6.0))
    assert rep.verdict == "causal (strict)"
    assert rep.families["shear"].max_abs_slope == pytest.approx(1 / np.sqrt(6), abs=1e-12)
    assert rep.families["sound"].max_abs_slope == pytest.approx(np.sqrt(8 / 9), abs=1e-12)
    assert rep.families["flow"].verdict == "strict"
    assert rep.families["light"].verdict == "boundary"


def test_cone_containment_boundary_at_a2_4():
    rep = cone_containment(state(4.0, w=(0.5, -0.2, 0.1)))
    assert rep.families["sound"].verdict == "boundary"
    assert rep.verdict == "causal (boundary)"


def test_cone_containment_violated_off_regime():
    rep = cone_containment(state(3.5, w=(1.0, 0.0, 0.0)))
    assert rep.verdict == "violated"
    assert rep.families["sound"].max_abs_slope > 1.0
    assert np.isfinite(rep.families["sound"].witness_theta)


def test_max_speed_rest_a2_4():
    assert max_characteristic_speed(state(4.0)) == pytest.approx(1.0, abs=1e-12)


def test_max_speed_rest_a2_9():
    v = max_characteristic_speed(state(9.0))
    assert v == pytest.approx(np.sqrt(22.0 / 27.0), abs=1e-12)
    assert v == pytest.approx(0.90267, abs=1e-5)


def test_max_speed_coupled_mode():
    s = state(9.0)
    fluid = max_characteristic_speed(s)
    coupled = max_characteristic_speed(s, include_gravity=True)
    assert coupled == 1.0
    assert coupled >= fluid


def test_max_speed_rejects_violated():
    with pytest.raises(ValueError):
        max_characteristic_speed(state(3.5, w=(1.0, 0, 0)))


def test_sound_speed_monotone_in_a2_at_rest():
    # slope^2 = 2(2+a2)/(3 a2) decreases in a2; check by finite differences
    grid = np.linspace(4.0, 12.0, 17)
    speeds = [cone_containment(state(a2)).families["sound"].max_abs_slope
              for a2 in grid]
    assert all(b <= a + 1e-13 for a, b in zip(speeds, speeds[1:]))


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
