import numpy as np
import pytest

from vecf.constitutive import TransportModel
from vecf.symbol import StatePoint, fluid_symbol
from vecf.tensor import minkowski, random_lorentzian_near_minkowski, validate_metrics
from vecf.verification import (_collapse_draws, _factorization_batch,
                               _factorization_draws, _first_worst, collapse_suite)

A2_RANGE = (4.0, 12.0)
DELTA = 0.05


def reference_sample(idx: int, seed: int):
    """One factorization sample drawn on its own, one call at a time.

    The draw order the batched suite must keep: a2, eps, the perturbed
    metric's seed (odd idx), w, u^0 (idx % 3 != 0, else g(u, u) = -1),
    xi, all from default_rng((seed, idx)).
    """
    rng = np.random.default_rng((seed, idx))
    a2 = rng.uniform(*A2_RANGE)
    eps = rng.uniform(0.5, 2.0)
    if idx % 2 == 0:
        g = minkowski()
    else:
        g = random_lorentzian_near_minkowski(DELTA, int(rng.integers(0, 2 ** 31)))
    w = rng.uniform(-3.0, 3.0, 3)
    if idx % 3 == 0:
        g00 = g.components[0, 0]
        b = 2.0 * float(g.components[0, 1:] @ w)
        c = float(w @ g.components[1:, 1:] @ w) + 1.0
        u0 = (-b - np.sqrt(b * b - 4.0 * g00 * c)) / (2.0 * g00)
    else:
        u0 = rng.uniform(0.5, 3.0)
    xi = rng.uniform(-2.0, 2.0, 4)
    model = TransportModel(a1=4.0, a2=a2, eta_form="power", eta0=1.0, p_exp=0.75)
    return StatePoint(eps=eps, u=np.array([u0, *w]), g=g, transport=model), xi


@pytest.mark.parametrize("seed", [7, 2024])
def test_batched_draws_and_symbols_match_per_index_reference(seed):
    indices = np.arange(300)
    a2, eps, u, xi, g = _factorization_draws(seed, indices, A2_RANGE, DELTA)
    g, ginv = validate_metrics(g)
    symbols, _ = _factorization_batch(seed, indices, A2_RANGE, DELTA)
    for j, idx in enumerate(indices):
        s, xi_ref = reference_sample(idx, seed)
        assert a2[j] == s.transport.a2 and eps[j] == s.eps
        assert np.array_equal(u[j], s.u) and np.array_equal(xi[j], xi_ref)
        assert np.array_equal(g[j], s.g.components)
        assert np.array_equal(ginv[j], s.g.inverse)
        # one formula, every contraction summed in index order: the batched
        # symbol has the bits of the single-state call
        assert np.array_equal(symbols[j], fluid_symbol(s, xi_ref))


def test_first_worst_takes_the_lowest_index_of_a_tie():
    # chunk results in any order: the tie at 3e-17 goes to index 40
    errors = [1e-17, 3e-17, 0.0, 3e-17]
    indices = [5, 97, -1, 40]
    assert _first_worst(errors, indices) == (3e-17, 40)
    # within one chunk, the first of equal errors wins
    assert _first_worst(np.array([2e-17, 3e-17, 3e-17]), np.arange(3)) == (3e-17, 1)


def test_first_worst_edge_cases():
    assert _first_worst([], []) == (0.0, -1)
    assert _first_worst([0.0, 0.0], [0, 1]) == (0.0, -1)
    worst, idx = _first_worst([1e-17, np.nan, np.nan], [0, 8, 3])
    assert np.isnan(worst) and idx == 3


def reference_collapse_sample(idx: int, seed: int):
    """One collapse sample drawn on its own, in the order the suite keeps:
    a2, the perturbed metric's seed (odd idx), u^0, w, xi."""
    rng = np.random.default_rng((seed, idx))
    a2 = rng.uniform(4.0, 12.0)
    if idx % 2 == 0:
        g = minkowski()
    else:
        g = random_lorentzian_near_minkowski(0.05, int(rng.integers(0, 2 ** 31)))
    u = np.array([rng.uniform(0.5, 3.0), *rng.uniform(-3.0, 3.0, 3)])
    xi = rng.uniform(-2.0, 2.0, 4)
    return a2, g, u, xi


@pytest.mark.parametrize("seed", [11, 2024])
def test_collapse_draws_match_per_index_reference(seed):
    indices = range(300)
    a2, u, xi, g = _collapse_draws(seed, indices)
    g, ginv = validate_metrics(g)
    for j, idx in enumerate(indices):
        a2_ref, g_ref, u_ref, xi_ref = reference_collapse_sample(idx, seed)
        assert a2[j] == a2_ref
        assert np.array_equal(u[j], u_ref) and np.array_equal(xi[j], xi_ref)
        assert np.array_equal(g[j], g_ref.components)
        assert np.array_equal(ginv[j], g_ref.inverse)


def test_collapse_suite_chunking_does_not_change_the_result(monkeypatch):
    from vecf import verification
    whole = collapse_suite(samples=300, seed=11)
    monkeypatch.setattr(verification, "BATCH_VALUES", 16 * 7)   # chunks of 7
    assert collapse_suite(samples=300, seed=11) == whole
    assert whole.c_at_a1_4 == 0.0 and whole.passed
