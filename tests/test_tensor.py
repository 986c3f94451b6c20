import numpy as np
import pytest
from reference import random_lorentzian_near_minkowski

from vecf.tensor import Metric4, minkowski, near_minkowski_components, validate_metrics


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


def test_perturbed_metric_rows_are_independent():
    # row j of a stack has the bits of its one-row call
    r = np.random.default_rng(3).random((6, 17))
    stack = near_minkowski_components(0.05, r)
    for j in range(6):
        assert np.array_equal(stack[j], near_minkowski_components(0.05, r[j:j + 1])[0])
    with pytest.raises(ValueError, match="uniforms must be"):
        near_minkowski_components(0.05, r[:, :16])


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


def _stack_with(member, k):
    stack = np.array([random_lorentzian_near_minkowski(0.05, seed).components
                      for seed in range(5)])
    stack[k] = member
    return stack


@pytest.mark.parametrize("member,reason", [
    (np.diag([-1.0, 1.0, 1.0, 1.0]) + np.triu(np.full((4, 4), 0.01), 1),
     "metric components must be symmetric"),
    (np.diag([-1.0, 1.0, 1.0, 0.0]), "metric determinant .* below guard"),
    (np.eye(4), "metric is not Lorentzian"),
])
@pytest.mark.parametrize("k", [0, 3])
def test_stack_validation_names_the_failing_member(member, reason, k):
    with pytest.raises(ValueError, match=reason) as exc:
        validate_metrics(_stack_with(member, k))
    assert str(exc.value).endswith(f" in member {k}")
    # the same metric alone keeps the single-metric message
    with pytest.raises(ValueError, match=reason) as exc:
        Metric4.from_components(member)
    assert "member" not in str(exc.value)


def test_stack_validation_equals_one_at_a_time():
    stack = _stack_with(np.diag([-1.0, 1.0, 1.0, 1.0]), 2)
    g, inv = validate_metrics(stack)
    for j, member in enumerate(stack):
        one = Metric4.from_components(member)
        assert np.array_equal(g[j], one.components)
        assert np.array_equal(inv[j], one.inverse)
    with pytest.raises(ValueError, match="metric must be 4x4"):
        Metric4.from_components(stack)
