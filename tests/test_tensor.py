import numpy as np
import pytest

from vecf.tensor import Metric4, minkowski, random_lorentzian_near_minkowski


def test_minkowski_components():
    g = minkowski()
    assert np.array_equal(g.components, np.diag([-1.0, 1.0, 1.0, 1.0]))
    assert np.array_equal(g.inverse, np.diag([-1.0, 1.0, 1.0, 1.0]))


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
