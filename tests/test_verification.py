import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import StatePoint, fluid_symbol

from vecf.constitutive import TransportModel
from vecf.symbol import symbol_components
from vecf.tensor import Metric4, minkowski, validate_metrics
from vecf.verification import (FACTORIZATION_MODEL, _collapse_draws, _factorization_draws,
                               _first_worst, _roots_draws, _time_matrix_draws,
                               collapse_suite, factorization_suite)

DELTA = 0.05       # the suites draw metrics within this of Minkowski
ETA = np.diag([-1.0, 1.0, 1.0, 1.0])

SUITE_DRAWS = {
    "factorization": _factorization_draws,
    "collapse": _collapse_draws,
    "roots": _roots_draws,
    "time_matrix": _time_matrix_draws,
}


def _metrics_and_velocities(name, draws):
    """(metrics (K, 4, 4), u (K, 4), rows meant to be normalized) of a suite's draws."""
    rows = np.arange(len(draws[0]))
    if name == "factorization":
        return draws[4], draws[2], rows % 3 == 0
    if name == "collapse":
        return draws[3], draws[1], rows < 0
    u = draws[1] if name == "roots" else draws[3]
    return np.broadcast_to(ETA, (len(rows), 4, 4)), u, rows >= 0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SUITE_DRAWS)), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 300), st.integers(0, 300))
def test_draws_are_prefixes_and_admissible(name, seed, n, extra):
    big = min(n + extra, 300)
    short, full = SUITE_DRAWS[name](seed, n), SUITE_DRAWS[name](seed, big)
    # the n-sample draw is the first n rows of the larger one, bit for bit
    for a, b in zip(short, full):
        assert a.tobytes() == np.ascontiguousarray(b[:n]).tobytes()
    g, u, normalized = _metrics_and_velocities(name, full)
    g, _ = validate_metrics(np.array(g))
    # 1e-15: the rounding of -1 + perturbation on the diagonal
    assert np.abs(g - ETA).max() <= DELTA + 1e-15
    uu = np.einsum("ki,kij,kj->k", u, g, u)
    assert np.all(np.abs(uu[normalized] + 1.0) <= 1e-12)
    assert np.all(u[normalized, 0] > 0.0)
    if name == "roots":
        assert np.all(np.abs(np.linalg.norm(full[2], axis=1) - 1.0) <= 1e-15)


@pytest.mark.parametrize("seed", [7, 2024])
def test_batched_symbols_match_single_state_symbols(seed):
    a2, eps, u, xi, g_raw = _factorization_draws(seed, 300)
    g, ginv = validate_metrics(g_raw)
    eta = FACTORIZATION_MODEL.eta(eps)
    symbols = symbol_components(u, eps, eta, a2 * eta, FACTORIZATION_MODEL.a1 * eta,
                                g, ginv, xi)
    for j in range(300):
        metric = minkowski() if j % 2 == 0 else Metric4.from_components(g_raw[j])
        assert np.array_equal(g[j], metric.components)
        assert np.array_equal(ginv[j], metric.inverse)
        model = TransportModel(a1=4.0, a2=float(a2[j]), eta0=1.0)
        s = StatePoint(eps=float(eps[j]), u=u[j], g=metric, transport=model)
        # one formula, every contraction summed in index order: the batched
        # symbol has the bits of the single-state call
        assert np.array_equal(symbols[j], fluid_symbol(s, xi[j]))


def test_factorization_suite_accepts_only_one_thread():
    assert factorization_suite(samples=30, seed=5, threads=1).passed
    with pytest.raises(ValueError, match="threads must be 1"):
        factorization_suite(samples=30, seed=5, threads=2)


def test_first_worst_takes_the_lowest_index_of_a_tie():
    assert _first_worst(np.array([2e-17, 3e-17, 3e-17])) == (3e-17, 1)


def test_first_worst_edge_cases():
    assert _first_worst([]) == (0.0, -1)
    assert _first_worst([0.0, 0.0]) == (0.0, -1)
    worst, idx = _first_worst([1e-17, np.nan, np.nan])
    assert np.isnan(worst) and idx == 1


def test_collapse_suite_chunking_does_not_change_the_result(monkeypatch):
    from vecf import verification
    whole = collapse_suite(samples=300, seed=11)
    monkeypatch.setattr(verification, "BATCH_VALUES", 16 * 7)   # chunks of 7
    assert collapse_suite(samples=300, seed=11) == whole
    assert whole.c_at_a1_4 == 0.0 and whole.passed
