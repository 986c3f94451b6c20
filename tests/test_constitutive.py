import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecf.constitutive import (SGN, TransportModel, complete_initial_data,
                               stress_tensor_fields, transport)


def random_normalized_jet(rng, grad_scale=1.0):
    """(u, du, eps, deps) of one normalized flat-space state, (4,)-shaped."""
    w = rng.uniform(-2.0, 2.0, 3)
    u = np.array([np.sqrt(1.0 + w @ w), *w])
    du = rng.uniform(-1.0, 1.0, (4, 4)) * grad_scale
    # enforce d_a (u.u) = 0 by solving for the u^0 gradient column
    du[:, 0] = (u[1] * du[:, 1] + u[2] * du[:, 2] + u[3] * du[:, 3]) / u[0]
    return u, du, rng.uniform(0.5, 2.0), rng.uniform(-1, 1, 4)


def test_transport_power_law():
    eta, lam, chi = transport(16.0, TransportModel(a1=4, a2=6, eta0=1.0))
    assert eta == pytest.approx(8.0)
    assert lam == pytest.approx(48.0)
    assert chi == pytest.approx(32.0)


def test_transport_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        transport(0.0, TransportModel())
    with pytest.raises(ValueError):
        transport(-1.0, TransportModel())


def test_stress_tensor_rest_state():
    T = stress_tensor_fields(np.array([1.0, 0, 0, 0]), np.zeros((4, 4)), 1.0,
                             np.zeros(4), TransportModel(eta0=1.0))
    assert T.shape == (4, 4)
    assert np.allclose(T, np.diag([1.0, 1 / 3, 1 / 3, 1 / 3]), atol=1e-15)


def test_stress_tensor_ideal_limit():
    # every viscous term carries eta, lam, or chi: eta0 = 0 leaves the ideal part
    rng = np.random.default_rng(5)
    u, du, eps, deps = random_normalized_jet(rng)
    T = stress_tensor_fields(u, du, eps, deps,
                             TransportModel(eta0=0.0))
    u_dn = SGN * u
    ideal = (4.0 / 3.0) * np.outer(u_dn, u_dn) * eps + (1.0 / 3.0) * np.diag(SGN) * eps
    assert np.allclose(T, ideal, atol=1e-15)


def test_stress_tensor_symmetry_exact():
    rng = np.random.default_rng(7)
    for _ in range(50):
        T = stress_tensor_fields(*random_normalized_jet(rng), TransportModel(a2=6))
        assert np.array_equal(T, T.T)


def test_stress_tensor_trace_free():
    # term-by-term cancellation for normalized jets
    rng = np.random.default_rng(11)
    model = TransportModel(a1=4, a2=7)
    for _ in range(500):
        T = stress_tensor_fields(*random_normalized_jet(rng), model)
        trace = float(np.sum(SGN * np.diag(T)))
        assert abs(trace) <= 1e-10 * np.abs(T).max()


def test_stress_tensor_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        stress_tensor_fields(np.array([1.0, 0, 0, 0]), np.zeros((4, 4)), 0.0,
                             np.zeros(4), TransportModel())
    with pytest.raises(ValueError):
        stress_tensor_fields(np.array([[1.0], [0], [0], [0]]),
                             np.zeros((4, 4, 1)), np.array([-1.0]),
                             np.zeros((4, 1)), TransportModel())


def test_complete_initial_data_rest():
    u, dtu, eps, dteps = complete_initial_data(1.0, 0.0, np.zeros(3), np.zeros(3))
    assert np.array_equal(u, [1.0, 0, 0, 0])
    assert np.array_equal(dtu, np.zeros(4))
    assert eps == 1.0 and dteps == 0.0


def test_complete_initial_data_boosted():
    u, dtu, _, _ = complete_initial_data(1.0, 0.0, np.array([1.0, 0, 0]),
                                         np.array([1.0, 0, 0]))
    assert u[0] == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert dtu[0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-14)


def test_complete_initial_data_rejects_bad_eps():
    with pytest.raises(ValueError):
        complete_initial_data(0.0, 0.0, np.zeros(3), np.zeros(3))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=3, max_size=3),
       st.lists(st.floats(-3, 3), min_size=3, max_size=3),
       st.floats(0.1, 10.0))
def test_completion_constraint_residuals(v0, v1, eps0):
    u, dtu, _, _ = complete_initial_data(eps0, 0.0, np.array(v0), np.array(v1))
    uu = float(np.sum(SGN * u * u))
    dt_uu = float(2.0 * np.sum(SGN * u * dtu))
    assert abs(uu + 1.0) < 1e-12
    assert abs(dt_uu) < 1e-12


def test_completion_field_arrays():
    rng = np.random.default_rng(2)
    v0 = rng.uniform(-1, 1, (3, 64))
    v1 = rng.uniform(-1, 1, (3, 64))
    u, dtu, eps, _ = complete_initial_data(np.full(64, 1.5), np.zeros(64), v0, v1)
    assert u.shape == (4, 64) and dtu.shape == (4, 64)
    uu = np.einsum('a,an,an->n', SGN, u, u)
    assert np.abs(uu + 1.0).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 16), st.sampled_from([(2,), (64,), (1, 5), (3, 17)]),
       st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True), st.booleans())
def test_stress_tensor_rows_are_the_full_tensor_rows_bitwise(seed, shape, rows, constant):
    # a row built alone has the bits it has in the full tensor, on (N,) and
    # (K, N) batches of points.  A (t, x) jet, k = 2, gives the bits of the
    # same jet padded with zero y and z rows, signed zeros included: on a
    # constant state every derivative is a zero of either sign, and so are
    # some velocity components
    rng = np.random.default_rng(seed)
    w = rng.uniform(-2.0, 2.0, (3,) + shape)
    if constant:
        w = np.where(rng.random(w.shape) < 0.5, rng.choice([0.0, -0.0], w.shape), w)
    u = np.concatenate([np.sqrt(1.0 + np.einsum('i...,i...->...', w, w))[None], w])
    du = rng.uniform(-1.0, 1.0, (4, 4) + shape)
    eps = rng.uniform(0.5, 2.0, shape)
    deps = rng.uniform(-1.0, 1.0, (4,) + shape)
    model = TransportModel(a1=4.0, a2=rng.uniform(4.0, 12.0))
    full = stress_tensor_fields(u, du, eps, deps, model)
    part = stress_tensor_fields(u, du, eps, deps, model, rows=rows)
    assert part.shape == (len(rows), 4) + shape
    assert np.array_equal(part, full[rows])

    if constant:
        du, deps = rng.choice([0.0, -0.0], du.shape), rng.choice([0.0, -0.0], deps.shape)
    du[2:], deps[2:] = 0.0, 0.0
    tx = stress_tensor_fields(u, du[:2], eps, deps[:2], model, rows=rows)
    padded = stress_tensor_fields(u, du, eps, deps, model, rows=rows)
    assert tx.shape == padded.shape and tx.tobytes() == padded.tobytes()
