import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference import (StatePoint, coupled_char_det, det_time_matrix_formula,
                       eval_factor, fluid_char_det, fluid_symbol,
                       random_lorentzian_near_minkowski, time_matrix)

from vecf.constitutive import TransportModel
from vecf.symbol import check_time_matrix_domain, det_by_elimination
from vecf.tensor import Metric4, minkowski, near_minkowski_components
from vecf.verification import DET_TOL, _magnitude_scale

E0 = np.array([1.0, 0.0, 0.0, 0.0])


def hand_symbol(s: StatePoint, xi: np.ndarray) -> np.ndarray:
    """Independent scalar transcription of the six entry families.

    Written directly from the second-order coefficients of the divergence
    and constraint equations, with explicit per-index loops; deliberately a
    different code path from the vectorized assembly it pins down.
    """
    g = s.g.components
    ginv = s.g.inverse
    u = s.u
    eta, lam, chi = (float(v) for v in s.coefficients())
    eps = s.eps
    m = np.zeros((5, 5))

    def d2(a, mu):
        return xi[a] * xi[mu]

    # wave-operator part of the diagonal entries, rows 0..3
    for b in range(4):
        for a in range(4):
            for mu in range(4):
                m[b, b] += (-eta * ginv[a, mu] + (lam - eta) * u[a] * u[mu]) * d2(a, mu)
    # gradient-of-divergence part: row b, column n, summed derivative index
    for b in range(4):
        for n in range(4):
            for a in range(4):
                m[b, n] += (lam + chi) * u[b] * u[a] * d2(a, n)
                m[b, n] += (1.0 / 3.0) * (chi - eta) * (ginv[b, a] + u[b] * u[a]) * d2(a, n)
    # energy column
    for b in range(4):
        for a in range(4):
            for mu in range(4):
                m[b, 4] += (u[b] * (lam * ginv[a, mu]
                                    + (lam + 3.0 * chi) * u[a] * u[mu])
                            + (lam + chi) * (u[a] * ginv[b, mu]
                                             + u[b] * u[a] * u[mu])) \
                    * d2(a, mu) / (4.0 * eps)
    # constraint row
    u_dn = g @ u
    for n in range(4):
        for a in range(4):
            for mu in range(4):
                m[4, n] += u_dn[n] * u[a] * u[mu] * d2(a, mu)
    return m


def fixed_state(a2=6.0, seed=42, normalized=False, mink=True):
    rng = np.random.default_rng(seed)
    g = minkowski() if mink else random_lorentzian_near_minkowski(0.05, seed)
    w = rng.uniform(-2.0, 2.0, 3)
    if normalized:
        u = np.array([np.sqrt(1.0 + w @ w), *w])
    else:
        u = np.array([rng.uniform(0.5, 2.0), *w])
    return StatePoint(eps=rng.uniform(0.5, 2.0), u=u, g=g,
                      transport=TransportModel(a1=4.0, a2=a2))


@st.composite
def unnormalized_states(draw):
    """a2 in [4, 12], eps and u^0 in [0.5, 2], spatial u in [-2, 2], and
    Minkowski or a metric within 0.05 of it (`near_minkowski_components`)."""
    uniforms = draw(st.none() | st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                         min_size=17, max_size=17))
    g = (minkowski() if uniforms is None
         else Metric4.from_components(near_minkowski_components(0.05, [uniforms])[0]))
    u = [draw(st.floats(0.5, 2.0))] + draw(st.lists(st.floats(-2.0, 2.0), min_size=3,
                                                    max_size=3))
    return StatePoint(eps=draw(st.floats(0.5, 2.0)), u=np.array(u), g=g,
                      transport=TransportModel(a1=4.0, a2=draw(st.floats(4.0, 12.0))))


def _fixed_examples(test):
    """The 20 fixed states and covectors, each an explicit example."""
    for seed in range(20):
        test = example(fixed_state(a2=4.0 + seed % 5, seed=seed, mink=(seed % 2 == 0)),
                       np.random.default_rng(seed + 100).uniform(-2, 2, 4))(test)
    return test


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(unnormalized_states(), st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
@_fixed_examples
def test_entry_families_match_hand_expansion(s, xi):
    xi = np.array(xi)
    assert np.allclose(fluid_symbol(s, xi), hand_symbol(s, xi), rtol=1e-13, atol=1e-13)


def test_constraint_row_rest_entry():
    s = StatePoint.rest(a2=4.0)
    m = fluid_symbol(s, E0)
    assert m[4, 0] == -1.0  # u_0 (u^0)^2
    assert m[4, 4] == 0.0


def test_symbol_homogeneity_entrywise():
    s = fixed_state()
    xi = np.array([0.3, -1.2, 0.7, 0.4])
    assert np.allclose(fluid_symbol(s, 2.0 * xi), 4.0 * fluid_symbol(s, xi),
                       rtol=1e-13)


def test_ideal_limit_zeroes_fluid_rows():
    s = StatePoint(eps=1.0, u=np.array([1.3, 0.4, -0.2, 0.1]), g=minkowski(),
                   transport=TransportModel(eta0=0.0))
    m = fluid_symbol(s, np.array([0.7, 1.1, -0.3, 0.2]))
    assert np.abs(m[:4, :]).max() == 0.0
    assert np.abs(m[4, :]).max() > 0.0  # constraint row carries no viscosity


def test_char_det_rest_state():
    s = StatePoint.rest(a2=4.0)
    assert fluid_char_det(s, E0) == pytest.approx(192.0, rel=1e-13)
    # equals the factor product 1/12 * 16 * 144
    prod = (eval_factor("flow", s, E0) * eval_factor("shear", s, E0)
            * eval_factor("sound", s, E0))
    assert prod == pytest.approx(192.0, rel=1e-13)


def test_char_det_vanishes_on_shear_root():
    s = StatePoint.rest(a2=4.0)
    xi = np.array([0.5, 1.0, 0.0, 0.0])   # xi0 = 1/sqrt(a2) at the rest state
    scale = np.abs(fluid_symbol(s, xi)).max() ** 5
    assert abs(fluid_char_det(s, xi)) <= 1e-10 * max(1.0, scale)


def test_char_det_zero_covector():
    s = fixed_state()
    assert fluid_char_det(s, np.zeros(4)) == 0.0


def test_char_det_homogeneity():
    s = fixed_state(seed=3)
    xi = np.array([0.9, -0.4, 0.6, -1.1])
    d1 = fluid_char_det(s, xi)
    d2 = fluid_char_det(s, 2.0 * xi)
    assert d2 == pytest.approx(2.0 ** 10 * d1, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(4.0, 12.0),                                    # a2
       st.floats(0.5, 2.0),                                     # eps
       st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),  # boost direction
       st.floats(0.0, 10.0),                                    # |w|
       st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),  # covector
       st.sampled_from([None, 1.0, -1.0]),   # or xi0 = +-|xibar| (1 + 1e-6 d)
       st.floats(-1.0, 1.0),                                    # d
       st.floats(0.1, 10.0))                                    # t
def test_factorization_and_homogeneity_admissible(a2, eps, wdir, wnorm,
                                                  xi, sign, d, t):
    wdir, xi = np.array(wdir), np.array(xi)
    assume(np.linalg.norm(wdir) >= 1e-3 and np.linalg.norm(xi[1:]) >= 1e-3)
    s = StatePoint(eps=eps, u=E0, g=minkowski(),
                   transport=TransportModel(a1=4.0, a2=a2)
                   ).boosted(wnorm * wdir / np.linalg.norm(wdir))
    if sign is not None:                 # within 1e-6 relative of the light cone
        xi[0] = sign * np.linalg.norm(xi[1:]) * (1.0 + 1e-6 * d)
    m = fluid_symbol(s, xi)
    det = fluid_char_det(s, xi)
    prod = (eval_factor("flow", s, xi) * eval_factor("shear", s, xi)
            * eval_factor("sound", s, xi))
    assert abs(det - prod) <= DET_TOL * max(_magnitude_scale(m), abs(det), abs(prod))
    m_t = fluid_symbol(s, t * xi)
    det_t = fluid_char_det(s, t * xi)
    expect = t ** 10 * det
    assert abs(det_t - expect) <= DET_TOL * max(_magnitude_scale(m_t), abs(det_t),
                                                abs(expect))


def test_coupled_det_null_covector():
    s = StatePoint.rest(a2=4.0)
    xi_null = np.array([1.0, 1.0, 0.0, 0.0])
    assert coupled_char_det(s, xi_null) == 0.0


def test_coupled_det_rest():
    s = StatePoint.rest(a2=4.0)
    assert coupled_char_det(s, E0) == pytest.approx(192.0, rel=1e-13)


def test_coupled_det_scaling():
    s = fixed_state(seed=9)
    xi = np.array([0.4, 0.8, -0.6, 0.3])
    r = coupled_char_det(s, 2 * xi) / coupled_char_det(s, xi)
    assert r == pytest.approx(2.0 ** 30, rel=1e-11)


def test_time_matrix_equals_symbol_at_e0():
    for seed in range(100):
        s = fixed_state(seed=seed, mink=(seed % 2 == 0))
        assert np.array_equal(time_matrix(s), fluid_symbol(s, E0))


def test_time_matrix_formula_rest():
    s = StatePoint.rest(a2=4.0)
    assert det_time_matrix_formula(s) == pytest.approx(192.0)


def test_time_matrix_formula_boosted():
    # |w| = 1: (1+1)^2 * (3*4 + 0) * (4 + 3)^2 = 4 * 12 * 49
    s = StatePoint.rest(a2=4.0).boosted([1.0, 0.0, 0.0])
    closed = det_time_matrix_formula(s)
    assert closed == pytest.approx(2352.0)
    numeric = float(det_by_elimination(time_matrix(s)[None])[0])
    assert abs(numeric - closed) <= 1e-10 * abs(closed)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eps", [1e115, 1e140, 1e150])
def test_time_matrix_formula_is_finite_where_its_value_fits(eps):
    # with the power model eta^4 / eps = eps^2: eta^4 overflows from about
    # eps = 6e102 and eta^3 from about 1e137, the value only past 1e154
    from vecf.symbol import det_time_matrix_closed_form
    eps = np.array([eps])
    eta = TransportModel().eta(eps)
    closed = det_time_matrix_closed_form(eta, eps, np.array([0.5]), 6.0)
    # (1 + w2)^2 (3 a2 + (a2 - 4) w2) (a2 + (a2 - 1) w2)^2 at w2 = 0.5, a2 = 6
    assert abs(closed[0] / (eps[0] ** 2 * 2.25 * 19.0 * 8.5 ** 2) - 1.0) <= 1e-14


def test_time_matrix_formula_positive_in_regime():
    rng = np.random.default_rng(0)
    for _ in range(300):
        a2 = rng.uniform(4.0, 12.0)
        s = StatePoint(eps=rng.uniform(0.1, 5.0), u=np.array([1.0, 0, 0, 0]),
                       g=minkowski(),
                       transport=TransportModel(a2=a2)).boosted(rng.uniform(-3, 3, 3))
        assert det_time_matrix_formula(s) > 0.0


def test_time_matrix_formula_domain_rejections():
    bad_metric = StatePoint(eps=1.0, u=np.array([1.0, 0, 0, 0]),
                            g=random_lorentzian_near_minkowski(0.05, 1),
                            transport=TransportModel())
    with pytest.raises(ValueError):
        det_time_matrix_formula(bad_metric)
    unnormalized = StatePoint(eps=1.0, u=np.array([2.0, 0, 0, 0]),
                              g=minkowski(), transport=TransportModel())
    with pytest.raises(ValueError):
        det_time_matrix_formula(unnormalized)
    wrong_a1 = StatePoint(eps=1.0, u=np.array([1.0, 0, 0, 0]), g=minkowski(),
                          transport=TransportModel(a1=6.0))
    with pytest.raises(ValueError):
        det_time_matrix_formula(wrong_a1)


def test_time_matrix_domain_names_the_unnormalized_member():
    w = np.random.default_rng(4).uniform(-3.0, 3.0, (5, 3))
    u = np.column_stack([np.sqrt(1.0 + (w * w).sum(axis=1)), w])
    check_time_matrix_domain(minkowski(), u, 4.0)
    u[2, 0] *= 1.0 + 1e-8
    with pytest.raises(ValueError, match="normalized u in member 2$"):
        check_time_matrix_domain(minkowski(), u, 4.0)
    with pytest.raises(ValueError, match="normalized u in member 0$"):
        check_time_matrix_domain(minkowski(), u[2:3], 4.0)


def test_det_by_elimination_reference():
    rng = np.random.default_rng(21)
    for _ in range(200):
        m = rng.uniform(-3, 3, (5, 5))
        assert det_by_elimination(m[None])[0] == pytest.approx(np.linalg.det(m), rel=1e-10)


def det_loop_reference(m: np.ndarray) -> float:
    """One matrix at a time, row by row: the elimination the stack must equal."""
    a = np.array(m, dtype=float)
    n = a.shape[0]
    det = 1.0
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if a[piv, col] == 0.0:
            return 0.0
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            det = -det
        det *= a[col, col]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
    return float(det)


def test_det_by_elimination_stack_bitwise():
    rng = np.random.default_rng(31)
    stack = rng.uniform(-3, 3, (40, 5, 5))
    stack[1, 3] = stack[1, 0]                     # singular: repeated row
    stack[2, :, 2] = 2.0 * stack[2, :, 4]         # singular: dependent columns
    stack[3] = np.round(stack[3])                 # integer entries: pivot ties
    stack[4, :, 0] = [2.0, -2.0, 2.0, -2.0, 1.0]  # tie on the first pivot
    stack[5, :, 0] = 0.0                          # zero pivot in column 0
    stack[6] = np.triu(stack[6])                  # zero pivot in column 2,
    stack[6, 2, 2] = 0.0                          # after two elimination steps
    stack[7] = 1.0                                # rank one
    stack[8] = 0.0
    for k in range(9, 40, 3):
        stack[k] = fluid_symbol(fixed_state(seed=k, mink=(k % 2 == 0)),
                                rng.uniform(-2, 2, 4))
    dets = det_by_elimination(stack)
    reference = np.array([det_loop_reference(m) for m in stack])
    assert np.array_equal(dets, reference)
    # a matrix has its stacked determinant in the stack of one
    assert all(det_by_elimination(m[None])[0] == r for m, r in zip(stack, reference))
    assert (dets[[5, 6, 8]] == 0.0).all()
    # a zero pivot zeroes its own matrix only
    assert (dets[9:] != 0.0).all()
