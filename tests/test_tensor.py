import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecf.tensor import (Covec4, Metric4, Vec4, inner, lower, minkowski,
                         raise_index, random_lorentzian_near_minkowski)


def test_minkowski_components():
    g = minkowski()
    assert np.array_equal(g.components, np.diag([-1.0, 1.0, 1.0, 1.0]))
    assert np.array_equal(g.inverse, np.diag([-1.0, 1.0, 1.0, 1.0]))


def test_minkowski_signature_inner():
    g = minkowski()
    e0 = Vec4(np.array([1.0, 0, 0, 0]))
    e1 = Vec4(np.array([0.0, 1, 0, 0]))
    assert inner(e0, e0, g) == -1.0
    assert inner(e1, e1, g) == 1.0


def test_lower_basic():
    g = minkowski()
    xi = lower(Vec4(np.array([1.0, 0, 0, 0])), g)
    assert np.array_equal(xi.components, [-1.0, 0, 0, 0])


def test_zero_perturbation_is_exact_minkowski():
    g = random_lorentzian_near_minkowski(0.0, 123)
    assert np.array_equal(g.components, np.diag([-1.0, 1.0, 1.0, 1.0]))


def test_random_metric_deterministic():
    a = random_lorentzian_near_minkowski(0.05, 42)
    b = random_lorentzian_near_minkowski(0.05, 42)
    assert np.array_equal(a.components, b.components)


def test_random_metric_signature_over_seeds():
    # eigenvalue oracle: every perturbed metric keeps signature (-,+,+,+)
    for seed in range(1000):
        g = random_lorentzian_near_minkowski(0.05, seed)
        eigs = np.linalg.eigvalsh(g.components)
        assert np.sum(eigs < 0) == 1 and np.sum(eigs > 0) == 3
        assert np.abs(g.components - np.diag([-1.0, 1, 1, 1])).max() <= 0.05 + 1e-15


def test_delta_out_of_range_rejected():
    with pytest.raises(ValueError):
        random_lorentzian_near_minkowski(0.2, 1)
    with pytest.raises(ValueError):
        random_lorentzian_near_minkowski(-0.01, 1)


def test_inverse_identity_residual():
    for seed in range(50):
        g = random_lorentzian_near_minkowski(0.08, seed)
        assert np.abs(g.components @ g.inverse - np.eye(4)).max() < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=4, max_size=4),
       st.integers(0, 10 ** 6))
def test_raise_lower_roundtrip(comps, seed):
    g = random_lorentzian_near_minkowski(0.05, seed)
    v = Vec4(np.array(comps))
    back = raise_index(lower(v, g), g)
    assert np.abs(back.components - v.components).max() < 1e-12


def test_roundtrip_bulk_randoms():
    rng = np.random.default_rng(0)
    worst = 0.0
    for k in range(1000):
        g = random_lorentzian_near_minkowski(0.05, k)
        v = Vec4(rng.uniform(-5, 5, 4))
        back = raise_index(lower(v, g), g)
        worst = max(worst, np.abs(back.components - v.components).max())
    assert worst < 1e-12


def test_inner_symmetry_exact():
    rng = np.random.default_rng(3)
    for k in range(200):
        g = random_lorentzian_near_minkowski(0.05, k)
        a, b = Vec4(rng.uniform(-2, 2, 4)), Vec4(rng.uniform(-2, 2, 4))
        # fixed summation order makes the symmetric metric contraction exact
        assert inner(a, b, g) == inner(b, a, g)


def test_mixed_variance_pairs_directly():
    g = minkowski()
    v = Vec4(np.array([2.0, 1.0, -1.0, 3.0]))
    xi = Covec4(np.array([1.0, 0.5, 0.0, -1.0]))
    assert inner(v, xi, g) == pytest.approx(2.0 + 0.5 - 3.0)
    assert inner(v, xi, g) == inner(xi, v, g)


def test_non_lorentzian_rejected():
    with pytest.raises(ValueError):
        Metric4.from_components(np.eye(4))
    with pytest.raises(ValueError):
        Metric4.from_components(np.diag([-1.0, 1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        Metric4.from_components(np.arange(16.0).reshape(4, 4))


def test_minkowski_is_one_validated_read_only_instance():
    g = minkowski()
    assert g is minkowski()
    assert isinstance(g, Metric4) and g.is_minkowski
    assert not g.components.flags.writeable
    assert not g.inverse.flags.writeable
    with pytest.raises(ValueError):
        g.components[0, 0] = 1.0
