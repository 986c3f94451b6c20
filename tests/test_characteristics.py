from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference import (StatePoint, cone_roots, eval_factor, eval_factor_base,
                       fluid_symbol, random_lorentzian_near_minkowski, state_arrays)

from vecf import characteristics
from vecf.characteristics import (COUPLED_FACTORS, FAMILIES, FLUID_FACTORS,
                                  bisection_roots, gevrey_index,
                                  quartic_coefficients, sound_quartic_general)
from vecf.constitutive import TransportModel
from vecf.symbol import det_by_elimination
from vecf.tensor import minkowski
from vecf.verification import COEFF_ZERO_TOL, ROOT_TOL, collapse_suite

E0 = np.array([1.0, 0.0, 0.0, 0.0])
E1 = np.array([0.0, 1.0, 0.0, 0.0])
# absolute floor of a residual bound: four units of the smallest subnormal
SUBNORMAL_FLOOR = 4.0 * np.finfo(float).smallest_subnormal


def rest(a2=4.0):
    return StatePoint.rest(a2=a2)


def random_state(seed, a2=None, normalized=True, mink=True):
    rng = np.random.default_rng(seed)
    if a2 is None:
        a2 = rng.uniform(4.0, 12.0)
    g = minkowski() if mink else random_lorentzian_near_minkowski(0.05, seed)
    w = rng.uniform(-2.0, 2.0, 3)
    u = np.array([np.sqrt(1.0 + w @ w), *w]) if normalized \
        else np.array([rng.uniform(0.5, 2.0), *w])
    return StatePoint(eps=rng.uniform(0.5, 2.0), u=u, g=g,
                      transport=TransportModel(a1=4.0, a2=a2))


def test_flow_factor_rest():
    assert eval_factor("flow", rest(), E0) == pytest.approx(1.0 / 12.0, rel=1e-14)


def test_shear_factor_rest():
    s = rest(a2=4.0)
    assert eval_factor("shear", s, E0) == pytest.approx(16.0)
    assert eval_factor("shear", s, E1) == pytest.approx(1.0)


def test_sound_factor_rest():
    s = rest(a2=4.0)
    assert eval_factor("sound", s, E0) == pytest.approx(144.0)    # 36 a2
    assert eval_factor("sound", s, E1) == pytest.approx(-144.0)   # -24 (a2+2)


def test_light_factor():
    s = rest()
    assert eval_factor("light", s, E1) == pytest.approx(1.0)
    assert eval_factor("light", s, np.array([1.0, 1.0, 0, 0])) == 0.0


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        eval_factor("entropy", rest(), E0)


@pytest.mark.parametrize("family,degree", [("flow", 4), ("shear", 4),
                                           ("sound", 2), ("light", 20)])
def test_factor_homogeneity(family, degree):
    s = random_state(1)
    xi = np.array([0.7, -0.9, 0.4, 1.1])
    v1 = eval_factor(family, s, xi)
    v2 = eval_factor(family, s, 2.0 * xi)
    assert v2 == pytest.approx(2.0 ** degree * v1, rel=1e-12)


def test_factor_product_equals_determinant():
    for seed in range(50):
        s = random_state(seed, normalized=(seed % 3 == 0), mink=(seed % 2 == 0))
        xi = np.random.default_rng(seed + 500).uniform(-2, 2, 4)
        det = det_by_elimination(fluid_symbol(s, xi))
        prod = (eval_factor("flow", s, xi) * eval_factor("shear", s, xi)
                * eval_factor("sound", s, xi))
        scale = max(1.0, abs(det), abs(prod))
        assert abs(det - prod) <= 1e-10 * scale


def general_quartic(s, xi, a1, a2):
    """The general quartic at one state point."""
    return sound_quartic_general(s.u, xi, s.g.components, s.g.inverse, a1, a2)


def test_general_quartic_zero_covector():
    assert general_quartic(random_state(2), np.zeros(4), 3.0, 5.0) == 0.0


def test_general_quartic_collapse_at_a1_4():
    for seed in range(200):
        s = random_state(seed, mink=(seed % 2 == 0))
        a2 = s.transport.a2
        xi = np.random.default_rng(seed + 900).uniform(-2, 2, 4)
        general = general_quartic(s, xi, 4.0, a2)
        collapsed = float(s.u @ xi) ** 2 * eval_factor_base("sound", s, xi)
        assert abs(general - collapsed) <= 1e-9 * max(1.0, abs(general), abs(collapsed))


def test_quartic_coefficients_c_vanishes_at_a1_4():
    co = quartic_coefficients(4.0, 6.0, np.array([1.0, 0, 0, 0]), minkowski())
    assert abs(co.C) <= 1e-10


def test_quartic_coefficients_c_sign_off_regime():
    # C = a2 (4 - a1) u.u; negative for a1 < 4 with normalized u
    co = quartic_coefficients(1.0, 6.0, np.array([1.0, 0, 0, 0]), minkowski())
    assert co.C == pytest.approx(-18.0, rel=1e-8)
    co = quartic_coefficients(6.0, 6.0, np.array([1.0, 0, 0, 0]), minkowski())
    assert co.C == pytest.approx(12.0, rel=1e-8)


def test_quartic_reconstruction_matches_direct():
    rng = np.random.default_rng(8)
    for a1 in (1.0, 2.5, 4.0, 6.0):
        u = np.array([np.sqrt(1.0 + 1.25), 0.5, -1.0, 0.0])
        co = quartic_coefficients(a1, 7.0, u, minkowski())
        s = StatePoint(eps=1.0, u=u, g=minkowski(),
                       transport=TransportModel(a1=a1, a2=7.0))
        for _ in range(20):
            xi = rng.uniform(-1.5, 1.5, 4)
            X = float(u @ xi) ** 2
            Y = float(xi @ np.diag([-1.0, 1, 1, 1]) @ xi)
            direct = general_quartic(s, xi, a1, 7.0)
            recon = co.A * X * X + co.B * X * Y + co.C * Y * Y
            assert recon == pytest.approx(direct, rel=1e-8, abs=1e-8)


def test_quartic_needs_non_null_u():
    with pytest.raises(ValueError):
        quartic_coefficients(4.0, 6.0, np.array([1.0, 1.0, 0, 0]), minkowski())


def test_quartic_coefficients_reject_a_null_p():
    # u = e1 is spacelike, and the covector orthogonal to it built from e1 is 0
    with pytest.raises(ValueError, match="light cone"):
        quartic_coefficients(4.0, 6.0, E1, minkowski())


def test_quartic_coefficients_held_out_failure_names_the_cell(monkeypatch):
    original = characteristics.sound_quartic_general

    def spoiled(u, xi, g, ginv, a1, a2):
        vals = original(u, xi, g, ginv, a1, a2)
        vals[3] = np.where(np.asarray(a1) == 2.0, vals[3] * (1.0 + 1e-6), vals[3])
        return vals

    monkeypatch.setattr(characteristics, "sound_quartic_general", spoiled)
    with pytest.raises(RuntimeError, match="a1 = 2, a2 = 6: held-out residual"):
        quartic_coefficients(np.array([1.0, 2.0, 4.0]), 6.0, E0, minkowski())


def test_shear_roots_rest():
    pair = cone_roots("shear", np.array([1.0, 0, 0]), np.array([1.0, 0, 0, 0]), 4.0)
    assert sorted((pair.minus, pair.plus)) == pytest.approx([-0.5, 0.5], abs=1e-14)


def test_sound_roots_rest_a2_6():
    pair = cone_roots("sound", np.array([1.0, 0, 0]), np.array([1.0, 0, 0, 0]), 6.0)
    expect = np.sqrt(2.0 * (2.0 + 6.0) / (3.0 * 6.0))
    assert sorted((pair.minus, pair.plus)) == pytest.approx([-expect, expect], abs=1e-14)
    assert expect == pytest.approx(0.94280904, abs=1e-8)


def test_sound_roots_rest_a2_4_on_light_cone():
    pair = cone_roots("sound", np.array([1.0, 0, 0]), np.array([1.0, 0, 0, 0]), 4.0)
    assert sorted((pair.minus, pair.plus)) == [-1.0, 1.0]


def test_closed_form_roots_zero_their_factor():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        a2 = rng.uniform(4.0, 12.0)
        w = rng.uniform(-2, 2, 3)
        u = np.array([np.sqrt(1.0 + w @ w), *w])
        s = StatePoint(eps=1.0, u=u, g=minkowski(),
                       transport=TransportModel(a2=a2))
        xibar = rng.normal(size=3)
        xibar /= np.linalg.norm(xibar)
        for family in FAMILIES:
            pair = cone_roots(family, xibar, u, a2)
            for root in (pair.minus, pair.plus):
                val = eval_factor_base(family, s, np.array([root, *xibar]))
                assert abs(val) <= 1e-9 * max(1.0, abs(
                    eval_factor_base(family, s, np.array([1.0, *xibar]))))


def test_roots_real_distinct_in_regime():
    rng = np.random.default_rng(4)
    for _ in range(200):
        a2 = rng.uniform(4.0, 12.0)
        w = rng.uniform(-3, 3, 3)
        u = np.array([np.sqrt(1.0 + w @ w), *w])
        xibar = rng.normal(size=3)
        xibar /= np.linalg.norm(xibar)
        for family in ("shear", "sound", "light"):
            pair = cone_roots(family, xibar, u, a2)
            assert pair.discriminant >= 0.0          # Cauchy-Schwarz guard
            assert abs(pair.plus - pair.minus) >= 1e-8


def test_closed_form_domain_rejections():
    with pytest.raises(ValueError):
        cone_roots("shear", np.zeros(3), np.array([1.0, 0, 0, 0]), 4.0)
    with pytest.raises(ValueError):
        cone_roots("shear", np.array([1.0, 0, 0]), np.array([2.0, 0, 0, 0]), 4.0)
    with pytest.raises(ValueError):
        cone_roots("entropy", np.array([1.0, 0, 0]), np.array([1.0, 0, 0, 0]), 4.0)
    # sound at a2 = 3 with |w| = 3: D = 0; with |w| = 4 across w: R < 0
    with pytest.raises(ValueError, match="degenerate"):
        cone_roots("sound", np.array([0.0, 1, 0]), np.array([np.sqrt(10.0), 3.0, 0, 0]), 3.0)
    with pytest.raises(ValueError, match="negative radicand"):
        cone_roots("sound", np.array([0.0, 1, 0]), np.array([np.sqrt(17.0), 4.0, 0, 0]), 3.0)


def test_bisection_matches_closed_forms():
    rng = np.random.default_rng(6)
    for _ in range(60):
        a2 = rng.uniform(4.0, 12.0)
        w = rng.uniform(-2, 2, 3)
        u = np.array([np.sqrt(1.0 + w @ w), *w])
        xibar = rng.normal(size=3)
        xibar /= np.linalg.norm(xibar)
        for family in ("shear", "sound"):
            (scan,) = bisection_roots(family, xibar, u[None], [a2])
            assert scan.complete
            pair = cone_roots(family, xibar, u, a2)
            exact = sorted((pair.minus, pair.plus))
            assert np.abs(np.array(scan.roots) - exact).max() < 1e-9


def test_bisection_light_cone_roots():
    (scan,) = bisection_roots("light", np.array([1.0, 0.0, 0.0]), [E0], [4.0])
    assert scan.complete
    assert np.abs(np.array(scan.roots) - [-1.0, 1.0]).max() < 1e-11


def test_bisection_flow_root_degenerate_multiplicity():
    (scan,) = bisection_roots("flow", np.array([1.0, 0.0, 0.0]), [E0], [4.0])
    assert scan.roots == pytest.approx([0.0], abs=1e-12)
    assert scan.expected_count == 1
    assert scan.factor_multiplicity == 4


def test_gevrey_indices():
    assert gevrey_index(FLUID_FACTORS) == Fraction(7, 6)
    assert gevrey_index(COUPLED_FACTORS) == Fraction(17, 16)


def test_gevrey_small_counts():
    from vecf.characteristics import FactorEntry, FactorSet
    two = FactorSet(entries=(FactorEntry("light", 2, 2),))
    assert gevrey_index(two) == Fraction(2, 1)
    with pytest.raises(ValueError):
        gevrey_index(FactorSet(entries=(FactorEntry("flow", 1, 1),)))


def test_factor_set_degrees():
    assert FLUID_FACTORS.total_degree == 10
    assert FLUID_FACTORS.factor_count == 7
    assert COUPLED_FACTORS.total_degree == 30
    assert COUPLED_FACTORS.factor_count == 17


def test_all_families_hyperbolic_above_boundary():
    # a2 > 4, Minkowski, normalized u: in every direction each family's base
    # polynomial has its full count of real roots, pairwise distinct
    u = np.tile([np.sqrt(1.0 + 1.25), 1.0, -0.5, 0.0], (6, 1))
    dirs = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0],
                     [0.6, 0.8, 0], [1.0, 1.0, 1.0] / np.sqrt(3.0)])
    for family in ("flow", "shear", "sound", "light"):
        for scan in bisection_roots(family, dirs, u, np.full(6, 5.0)):
            assert scan.complete, family
            assert scan.min_gap >= characteristics.DISTINCTNESS_GAP, family


def test_quartic_coefficients_c_at_a1_4_every_suite_seed():
    # collapse_suite's C values read no sample, so every suite seed reports
    # C = a2 (a1 - 4) exactly
    for seed in (0, 7, 11, 13, 2024):
        rep = collapse_suite(samples=1, seed=seed)
        assert rep.c_at_a1_4 == 0.0
        assert rep.c_off_values == {"a1=1": -18.0, "a1=2": -12.0, "a1=6": 12.0}


def test_quartic_coefficients_exact_at_rest():
    # at u = e0 on Minkowski the covectors are e1 and (-1, s, 0, 0), and
    # every coefficient of these (a1, a2) is an exact float
    a1, a2 = (g.ravel() for g in np.meshgrid(np.arange(0.0, 8.25, 0.5),
                                             np.arange(0.5, 12.25, 0.5), indexing="ij"))
    co = quartic_coefficients(a1, a2, E0, minkowski())
    assert len(a1) == 408
    assert np.array_equal(co.C, a2 * (a1 - 4.0))
    assert np.array_equal(co.A, 4.0 * (a1 * a2 - 3.0 * a1 - a2))
    assert np.array_equal(co.B, -4.0 * (3.0 * a1 + 2.0 * a2 + a1 * a2))


def test_quartic_coefficients_c_at_a1_4_boosted():
    rng = np.random.default_rng(12)
    for seed in range(100):
        w = rng.uniform(-3.0, 3.0, 3)
        u = np.array([np.sqrt(1.0 + w @ w), *w])
        g = minkowski() if seed % 2 else random_lorentzian_near_minkowski(0.05, seed)
        co = quartic_coefficients(4.0, rng.uniform(4.0, 12.0), u, g)
        assert abs(co.C) <= COEFF_ZERO_TOL
        assert co.residual <= 1e-8


admissible = st.tuples(
    st.floats(4.0, 12.0),                                   # a2
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),  # boost direction
    st.floats(0.0, 3.0),                                    # |w|
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),  # spatial covector
)


def admissible_case(a2, wdir, wnorm, xdir):
    """Normalized Minkowski state with |w| <= 3 and a unit spatial covector."""
    wdir, xdir = np.array(wdir), np.array(xdir)
    assume(np.linalg.norm(wdir) >= 1e-3 and np.linalg.norm(xdir) >= 1e-3)
    w = wnorm * wdir / np.linalg.norm(wdir)
    s = StatePoint(eps=1.0, u=np.array([np.sqrt(1.0 + w @ w), *w]), g=minkowski(),
                   transport=TransportModel(a1=4.0, a2=a2))
    return s, xdir / np.linalg.norm(xdir)


def term_scale(family, s, xi):
    """Bound on every term of the base polynomial at xi: the error scale."""
    uxi = np.abs(s.u) @ np.abs(xi)
    xixi = np.abs(xi) @ np.abs(s.g.inverse) @ np.abs(xi)
    uu = abs(float(s.u @ s.g.components @ s.u))
    a2 = s.transport.a2
    return {"flow": uxi,
            "shear": (a2 - 1.0) * uxi ** 2 + xixi,
            "sound": (6.0 * ((a2 + 5.0) * a2 + abs(a2 ** 2 + 7.0 * a2 - 8.0) * uu) * uxi ** 2
                      + 6.0 * (a2 + 2.0) * (1.0 + 5.0 * uu) * xixi),
            "light": xixi}[family]


@settings(max_examples=100, deadline=None)
@given(admissible, st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8))
def test_batched_base_matches_scalar_columns(case, times):
    s, xibar = admissible_case(*case)
    xis = np.array([[t, *xibar] for t in times]).T
    for family in ("flow", "shear", "sound", "light"):
        batch = eval_factor_base(family, s, xis)
        assert batch.shape == (len(times),)
        for k in range(len(times)):
            scalar = eval_factor_base(family, s, xis[:, k])
            assert isinstance(scalar, float)
            # both contract through symbol_contractions: the same bits
            assert batch[k] == scalar


@settings(max_examples=60, deadline=None)
@given(admissible)
def test_bisection_matches_closed_forms_admissible(case):
    s, xibar = admissible_case(*case)
    for family in ("shear", "sound"):
        (scan,) = bisection_roots(family, xibar, s.u[None], [s.transport.a2])
        assert scan.complete
        pair = cone_roots(family, xibar, s.u, s.transport.a2)
        exact = sorted((pair.minus, pair.plus))
        assert np.abs(np.array(scan.roots) - exact).max() <= ROOT_TOL


@settings(max_examples=200, deadline=None)
@given(admissible, st.floats(0.1, 10.0))
@example(case=(4.0, [0.0, 1.0, 0.0], 1.0, [0.0, 5e-324, 1.0]), size=1.0)
def test_table_roots_zero_every_base_polynomial(case, size):
    # the (alpha, beta) table against the base polynomials it stands for;
    # a subnormal covector component carries no relative precision, so the
    # bound has an absolute floor of a few subnormal units
    s, xibar = admissible_case(*case)
    xibar = size * xibar
    for family in FAMILIES:
        pair = cone_roots(family, xibar, s.u, s.transport.a2)
        for root in (pair.minus, pair.plus):
            xi = np.array([root, *xibar])
            resid = eval_factor_base(family, s, xi)
            assert abs(resid) <= max(1e-12 * term_scale(family, s, xi), SUBNORMAL_FLOOR)


def test_bisection_flow_root_boosted():
    # degree-1 family: one root, at xi0 = -(w.xibar) / u^0
    s = rest(a2=6.0).boosted([0.8, -1.5, 0.3])
    xibar = np.array([0.6, 0.0, -0.8])
    (scan,) = bisection_roots("flow", xibar, s.u[None], [6.0])
    assert scan.complete and scan.found_count == 1
    assert abs(scan.roots[0] + s.u[1:] @ xibar / s.u[0]) <= ROOT_TOL
    assert scan.min_gap == np.inf


def test_bisection_roots_on_grid_points_are_exact():
    # light cone at rest: bound 4, grid step 1/128, so +-1 are grid points
    # where the base polynomial is exactly zero; no bracket is bisected
    (scan,) = bisection_roots("light", np.array([1.0, 0.0, 0.0]), [E0], [4.0])
    assert scan.roots == (-1.0, 1.0)


def test_bisection_roots_at_both_grid_ends(monkeypatch):
    # t^3 - 4t posing as the affine flow family: the Cauchy bound for degree
    # 1 is then 2, so its roots -2, 0, 2 are the first, middle and last
    # grid points, and the last one is caught only by the end-point rule.
    # At rest u.xi is t exactly.
    monkeypatch.setattr(characteristics, "factor_base_values",
                        lambda family, uxi, xixi, uu, a2: uxi ** 3 - 4.0 * uxi)
    (scan,) = bisection_roots("flow", np.array([1.0, 0.0, 0.0]), [E0], [4.0])
    assert scan.roots == (-2.0, 0.0, 2.0)
    assert not scan.complete


def mixed_state(seed):
    """A state with a2 in [4, 12], |w| <= 3 and, for odd seeds, a perturbed metric."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0, 1.0, 3) * rng.uniform(0.0, np.sqrt(3.0))
    g = minkowski() if seed % 2 == 0 else random_lorentzian_near_minkowski(0.05, seed)
    return StatePoint(eps=1.0, u=np.array([np.sqrt(1.0 + w @ w), *w]), g=g,
                      transport=TransportModel(a1=4.0, a2=rng.uniform(4.0, 12.0)))


@settings(max_examples=40, deadline=None)
@given(admissible, st.integers(0, 4), st.integers(0, 2 ** 16), st.floats(0.0, 8.0))
def test_batched_oracles_match_single_state_calls_bitwise(case, position, seed, a1):
    # a state's roots and general-quartic value are the same bits in a batch
    # of other states and directions as in its call alone
    s, xibar = admissible_case(*case)
    states = [mixed_state(seed + j) for j in range(4)]
    states.insert(position, s)
    dirs = np.random.default_rng(seed).normal(size=(5, 3))
    dirs[position] = xibar
    u, a2, g = state_arrays(states)
    for family in ("shear", "sound"):
        batch = bisection_roots(family, dirs, u, a2, g)
        assert len(batch) == 5
        assert batch[position] == bisection_roots(family, xibar, *state_arrays([s]))[0]
        assert bisection_roots(family, xibar[None], s.u[None], [s.transport.a2],
                               s.g.components) == [batch[position]]
    xi = np.random.default_rng(seed + 1).uniform(-2.0, 2.0, (5, 4))
    ginv = np.array([t.g.inverse for t in states])
    a1s = np.full(5, a1)
    batch = sound_quartic_general(u, xi, g, ginv, a1s, a2)
    p = slice(position, position + 1)
    alone = sound_quartic_general(u[p], xi[p], g[p], ginv[p], a1s[p], a2[p])
    single = general_quartic(s, xi[position], a1, s.transport.a2)
    assert batch[position] == alone[0] == single


def reference_base_on_lines(family, t, pairs, xibar, u, g, ginv, a2):
    """A family's base polynomial at xi = (t, xibar), each covector
    contracted in full: t (L, M) holds M times on each of L lines, and line
    l belongs to pair pairs[l] of the per-pair arrays."""
    from vecf.symbol import symbol_contractions
    p = pairs
    xi = np.empty((len(p), t.shape[1], 4))
    xi[..., 0] = t
    xi[..., 1:] = xibar[p, None]
    _, _, uxi, xixi, uu = symbol_contractions(u[p, None], xi, g[p, None], ginv[p, None])
    return characteristics.factor_base_values(family, uxi, xixi, uu, a2[p, None])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 16))
def test_line_evaluation_matches_full_contractions(seed):
    # the line's polynomial coefficients give the base polynomial of the
    # full contraction to a few ulps of the line's largest value, on
    # Minkowski (even seeds) and perturbed (odd seeds) metrics; 1800
    # lines of each family measured at most 10.6 ulps
    states = [mixed_state(seed + j) for j in range(6)]
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(6, 3))
    u = np.array([s.u for s in states])
    g = np.array([s.g.components for s in states])
    ginv = np.array([s.g.inverse for s in states])
    a2 = np.array([s.transport.a2 for s in states])
    pairs = np.arange(6)
    t = np.sort(rng.uniform(-4.0, 4.0, (6, 257)), axis=1)
    line = characteristics._line_contractions(dirs, u, g, ginv)
    for family in FAMILIES:
        got = characteristics._line_base_values(family, t, [c[:, None] for c in line],
                                                a2[:, None])
        ref = reference_base_on_lines(family, t, pairs, dirs, u, g, ginv, a2)
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - ref) <= 32.0 * np.finfo(float).eps * scale)


def test_bisection_roots_pairs_one_state_with_many_directions():
    s = rest(a2=6.0).boosted([0.4, -0.3, 1.2])
    dirs = np.random.default_rng(3).normal(size=(6, 3))
    scans = bisection_roots("sound", dirs, np.tile(s.u, (6, 1)), np.full(6, 6.0))
    assert scans == [bisection_roots("sound", v, s.u[None], [6.0])[0] for v in dirs]
    u2, a2 = np.tile(s.u, (2, 1)), np.full(2, 6.0)
    with pytest.raises(ValueError, match="xibar must be"):
        bisection_roots("sound", dirs, u2, a2)
    with pytest.raises(ValueError, match="nonzero"):
        bisection_roots("sound", np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), u2, a2)


def test_bisection_roots_reject_a_zero_spatial_covector():
    # one shared covector, and one zero row among K, are rejected alike
    u, a2 = np.tile(E0, (3, 1)), np.full(3, 6.0)
    with pytest.raises(ValueError, match="nonzero"):
        bisection_roots("shear", np.zeros(3), u, a2)
    with pytest.raises(ValueError, match="nonzero"):
        bisection_roots("shear", np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0],
                                           [1.0, 0.0, 0.0]]), u, a2)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 16))
def test_bisection_roots_shared_metric_equals_it_repeated(seed):
    # a (4, 4) metric or covector serves every pair with the bits of its
    # (K, 4, 4) or (K, 3) repetition, and g = None is the Minkowski metric
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0, 1.0, (4, 3))
    u = np.column_stack([np.sqrt(1.0 + (w * w).sum(axis=1)), w])
    a2 = rng.uniform(4.0, 12.0, 4)
    xibar = rng.normal(size=3)
    g = random_lorentzian_near_minkowski(0.05, seed).components
    for family in ("shear", "sound"):
        shared = bisection_roots(family, xibar, u, a2, g)
        assert shared == bisection_roots(family, np.tile(xibar, (4, 1)), u, a2,
                                         np.tile(g, (4, 1, 1)))
        flat = bisection_roots(family, xibar, u, a2)
        assert flat == bisection_roots(family, xibar, u, a2, minkowski().components)
        assert flat == bisection_roots(family, xibar, u, a2,
                                       np.tile(minkowski().components, (4, 1, 1)))


def test_quartic_coefficients_batch_matches_each_cell_alone():
    a1 = np.array([1.0, 2.0, 4.0, 6.0, 3.5])
    a2 = np.array([6.0, 2.0, 9.0, 1.0, 12.0])
    boosted = np.array([np.sqrt(2.25), 0.5, -1.0, 0.0])
    for u, g in ((E0, minkowski()), (boosted, random_lorentzian_near_minkowski(0.05, 9))):
        batch = quartic_coefficients(a1, a2, u, g)
        for k in range(len(a1)):
            alone = quartic_coefficients(a1[k], a2[k], u, g)
            assert (batch.A[k], batch.B[k], batch.C[k], batch.residual[k]) == (
                alone.A, alone.B, alone.C, alone.residual)
