"""Seeded verification suites: the facts the package exists to check.

Every suite draws its samples from per-index seeded generators, so results
are bit-identical regardless of chunking or worker count, and every report
carries the tolerances it used.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .characteristics import (BATCH_VALUES, FLUID_FACTORS, bisection_roots,
                              cone_roots, factor_base_values, factor_values,
                              quartic_coefficients, sound_quartic_general)
from .constitutive import TransportModel
from .symbol import (StatePoint, check_time_matrix_domain, det_by_elimination,
                     det_time_matrix_closed_form, symbol_components,
                     symbol_contractions)
from .tensor import minkowski, near_minkowski_components, validate_metrics

DET_TOL = 1e-9
COLLAPSE_TOL = 1e-9
COEFF_ZERO_TOL = 1e-12
ROOT_TOL = 1e-9
GAP_TOL = 1e-8
TIME_MATRIX_TOL = 1e-10


# the factorization suite's viscosity model; a2 is drawn per sample, and
# eta does not depend on it
FACTORIZATION_MODEL = TransportModel(a1=4.0, eta_form="power", eta0=1.0, p_exp=0.75)


def _factorization_draws(seed: int, indices, a2_range, delta: float):
    """Per-index draws of the factorization suite, as arrays.

    Sample idx draws from its own generator default_rng((seed, idx)), in
    this order: a2, eps, for odd idx the seed of its perturbed metric,
    the spatial velocity w, for idx % 3 != 0 the time component u^0, and
    the covector xi.  For idx % 3 == 0, u^0 solves g(u, u) = -1 instead.
    Even idx use the Minkowski metric.  Returns a2, eps (K,), u, xi
    (K, 4) and the unvalidated metric components (K, 4, 4).
    """
    k = len(indices)
    a2, eps = np.empty(k), np.empty(k)
    u, xi = np.empty((k, 4)), np.empty((k, 4))
    g = np.empty((k, 4, 4))
    flat = minkowski().components
    for j, idx in enumerate(indices):
        rng = np.random.default_rng((seed, idx))
        a2[j] = rng.uniform(*a2_range)
        eps[j] = rng.uniform(0.5, 2.0)
        gj = flat if idx % 2 == 0 else near_minkowski_components(
            delta, int(rng.integers(0, 2 ** 31)))
        w = rng.uniform(-3.0, 3.0, 3)
        if idx % 3 == 0:
            # normalized with respect to g: solve the quadratic for u^0
            g00 = gj[0, 0]
            b = 2.0 * float(gj[0, 1:] @ w)
            c = float(w @ gj[1:, 1:] @ w) + 1.0
            disc = b * b - 4.0 * g00 * c
            u[j, 0] = (-b - np.sqrt(disc)) / (2.0 * g00)
        else:
            u[j, 0] = rng.uniform(0.5, 3.0)
        u[j, 1:] = w
        xi[j] = rng.uniform(-2.0, 2.0, 4)
        g[j] = gj
    return a2, eps, u, xi, g


def _magnitude_scale(m: np.ndarray):
    """Error scale for 5x5 determinant comparisons, per matrix of (..., 5, 5).

    max(1, E^5) with E the largest entry magnitude: a five-fold product of
    entries bounds every elimination intermediate, so 1e-9 of this scale
    sits far above the achievable cancellation noise while still scaling
    like |xi|^10 times the state-dependent coefficients.
    """
    return np.maximum(1.0, np.abs(m).max(axis=(-2, -1)) ** 5)


def _first_worst(errors, indices):
    """(largest error, the lowest index that reaches it).

    A NaN error counts as the largest.  With no positive error the index
    is -1.  Chunk results reduce by the same rule, so the answer does not
    depend on how the indices were chunked.
    """
    errors = np.asarray(errors, dtype=float)
    indices = np.asarray(indices)
    nan = np.isnan(errors)
    if nan.any():
        return float("nan"), int(indices[nan].min())
    worst = errors.max(initial=0.0)
    if worst <= 0.0:
        return 0.0, -1
    return float(worst), int(indices[errors == worst].min())


def _factorization_batch(seed: int, indices, a2_range, delta: float):
    """Symbols (K, 5, 5) and flow * shear * sound products (K,) of the samples.

    The metrics are validated as one stack; the symbols and the factors
    read the same contractions.
    """
    a2, eps, u, xi, g = _factorization_draws(seed, indices, a2_range, delta)
    g, ginv = validate_metrics(g)
    eta = FACTORIZATION_MODEL.eta(eps)
    symbols = symbol_components(u, eps, eta, a2 * eta, FACTORIZATION_MODEL.a1 * eta,
                                g, ginv, xi)
    _, _, uxi, xixi, uu = symbol_contractions(u, xi, g, ginv)
    prods = np.ones(len(indices))
    for family in (e.family for e in FLUID_FACTORS.entries):
        prods *= factor_values(family, factor_base_values(family, uxi, xixi, uu, a2),
                               eta, eps)
    return symbols, prods


def _factorization_chunk(args):
    seed, indices, a2_range, delta = args
    symbols, prods = _factorization_batch(seed, indices, a2_range, delta)
    dets = det_by_elimination(symbols)
    errors = np.abs(dets - prods) / np.maximum(
        np.maximum(_magnitude_scale(symbols), np.abs(dets)), np.abs(prods))
    return _first_worst(errors, indices)


@dataclass(frozen=True)
class FactorizationReport:
    samples: int
    seed: int
    tolerance: float
    max_scaled_error: float
    worst_index: int
    runtime_seconds: float
    a2_range: tuple
    metric_delta: float

    @property
    def passed(self) -> bool:
        return self.max_scaled_error <= self.tolerance

    def to_json(self) -> dict:
        return {
            "check": "determinant-factorization",
            "parameters": {"a1": 4.0, "a2_range": list(self.a2_range),
                           "metric_delta": self.metric_delta},
            "samples": self.samples,
            "seed": self.seed,
            "tolerances": {"scaled_error": self.tolerance},
            "max_scaled_error": self.max_scaled_error,
            "worst_index": self.worst_index,
            "runtime_seconds": self.runtime_seconds,
            "passed": self.passed,
        }


def factorization_suite(samples: int = 10000, seed: int = 7,
                        a2_range=(4.0, 12.0), delta: float = 0.05,
                        threads: int = 1) -> FactorizationReport:
    """det(symbol) == flow * shear * sound over seeded random states.

    States mix Minkowski with perturbed metrics and normalized with
    unnormalized u; errors are scaled by max(1, E^5, |det|, |product|)
    with E the largest symbol entry.
    """
    t0 = time.perf_counter()
    indices = np.arange(samples)
    if threads <= 1:
        worst, worst_idx = _factorization_chunk((seed, indices, a2_range, delta))
    else:
        chunks = np.array_split(indices, threads * 4)
        args = [(seed, c, a2_range, delta) for c in chunks if len(c)]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_factorization_chunk, args))
        worst, worst_idx = _first_worst([r[0] for r in results], [r[1] for r in results])
    return FactorizationReport(
        samples=samples, seed=seed, tolerance=DET_TOL,
        max_scaled_error=float(worst), worst_index=int(worst_idx),
        runtime_seconds=time.perf_counter() - t0,
        a2_range=tuple(a2_range), metric_delta=delta,
    )


@dataclass(frozen=True)
class CollapseReport:
    samples: int
    seed: int
    tolerance: float
    max_relative_error: float
    c_at_a1_4: float
    c_zero_tolerance: float
    c_off_values: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return (self.max_relative_error <= self.tolerance
                and abs(self.c_at_a1_4) <= self.c_zero_tolerance
                and all(abs(v) > 1e-6 for v in self.c_off_values.values()))

    def to_json(self) -> dict:
        return {
            "check": "general-quartic-collapse",
            "parameters": {"a1": 4.0},
            "samples": self.samples,
            "seed": self.seed,
            "tolerances": {"relative": self.tolerance,
                           "coefficient_zero": self.c_zero_tolerance},
            "max_relative_error": self.max_relative_error,
            "c_at_a1_4": self.c_at_a1_4,
            "c_off_values": self.c_off_values,
            "passed": self.passed,
        }


def _collapse_draws(seed: int, indices):
    """Per-index draws of the collapse suite, as arrays.

    Sample idx draws from its own generator default_rng((seed, idx)), in
    this order: a2, for odd idx the seed of its perturbed metric, u^0, the
    spatial velocity w, and the covector xi.  Even idx use the Minkowski
    metric.  Returns a2 (K,), u, xi (K, 4) and the unvalidated metric
    components (K, 4, 4).
    """
    k = len(indices)
    a2 = np.empty(k)
    u, xi = np.empty((k, 4)), np.empty((k, 4))
    g = np.empty((k, 4, 4))
    flat = minkowski().components
    for j, idx in enumerate(indices):
        rng = np.random.default_rng((seed, idx))
        a2[j] = rng.uniform(4.0, 12.0)
        g[j] = flat if idx % 2 == 0 else near_minkowski_components(
            0.05, int(rng.integers(0, 2 ** 31)))
        u[j, 0] = rng.uniform(0.5, 3.0)
        u[j, 1:] = rng.uniform(-3.0, 3.0, 3)
        xi[j] = rng.uniform(-2.0, 2.0, 4)
    return a2, u, xi, g


def collapse_suite(samples: int = 1000, seed: int = 11) -> CollapseReport:
    """General quartic at a1=4 equals (u.xi)^2 times the sound factor.

    Also extracts the (xi.xi)^2 coefficient C: zero at a1 = 4 to 1e-12,
    nonzero at the off-regime points a1 in {1, 2, 6}.  The samples are
    checked in batches of BATCH_VALUES / 16, each metric stack validated
    at once; a NaN error counts as the largest and fails the suite.
    """
    worst = 0.0
    chunk = BATCH_VALUES // 16
    for start in range(0, samples, chunk):
        a2, u, xi, g = _collapse_draws(seed, range(start, min(start + chunk, samples)))
        g, ginv = validate_metrics(g)
        general = sound_quartic_general(u, xi, g, ginv, 4.0, a2)
        _, _, uxi, xixi, uu = symbol_contractions(u, xi, g, ginv)
        collapsed = uxi ** 2 * factor_base_values("sound", uxi, xixi, uu, a2)
        errors = np.abs(general - collapsed) / np.maximum(
            np.maximum(1.0, np.abs(general)), np.abs(collapsed))
        worst = np.max(errors, initial=worst)

    a1 = (4.0, 1.0, 2.0, 6.0)
    c = quartic_coefficients(np.array(a1), 6.0, np.array([1.0, 0.0, 0.0, 0.0]),
                             minkowski(), seed=seed).C
    c_off = {f"a1={v:g}": float(cv) for v, cv in zip(a1[1:], c[1:])}
    return CollapseReport(samples=samples, seed=seed, tolerance=COLLAPSE_TOL,
                          max_relative_error=float(worst), c_at_a1_4=float(c[0]),
                          c_zero_tolerance=COEFF_ZERO_TOL, c_off_values=c_off)


# roots_suite keeps the per-sample rows of this many leading samples: the
# table that `vecf roots` writes next to its report
ROOTS_ROW_SAMPLES = 200


@dataclass(frozen=True)
class RootsReport:
    samples: int
    seed: int
    tolerance: float
    gap_tolerance: float
    max_root_error: dict
    min_gap: dict
    failures: int
    # (family, a2, |w|^2, closed roots -/+, numeric roots -/+, abs error) per
    # family of each of the first ROOTS_ROW_SAMPLES samples
    rows: tuple = field(default=(), repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return (self.failures == 0
                and all(v <= self.tolerance for v in self.max_root_error.values())
                and all(v >= self.gap_tolerance for v in self.min_gap.values()))

    def to_json(self) -> dict:
        return {
            "check": "closed-form-roots",
            "parameters": {"a1": 4.0, "a2_range": [4.0, 12.0]},
            "samples": self.samples,
            "seed": self.seed,
            "tolerances": {"absolute_root": self.tolerance, "distinctness": self.gap_tolerance},
            "max_root_error": self.max_root_error,
            "min_gap": self.min_gap,
            "failures": self.failures,
            "passed": self.passed,
        }


def _roots_draws(seed: int, indices):
    """States and unit spatial covectors (K, 3) of roots samples.

    Sample idx draws from default_rng((seed, idx)): a2 in [4, 12], a
    normalized boost with |w| <= 3 (the direction, then its scale), eps in
    [0.5, 2] and the covector direction.
    """
    states, xibar = [], np.empty((len(indices), 3))
    for j, idx in enumerate(indices):
        rng = np.random.default_rng((seed, idx))
        a2 = rng.uniform(4.0, 12.0)
        w = rng.uniform(-3.0, 3.0, 3) * rng.uniform(0.0, 1.0)
        u = np.array([np.sqrt(1.0 + w @ w), *w])
        states.append(StatePoint(eps=rng.uniform(0.5, 2.0), u=u, g=minkowski(),
                                 transport=TransportModel(a1=4.0, a2=a2)))
        v = rng.normal(size=3)
        xibar[j] = v / np.linalg.norm(v)
    return states, xibar


def roots_suite(samples: int = 1000, seed: int = 13) -> RootsReport:
    """Closed-form shear/sound roots vs the bisection oracle on unit directions.

    Unit-sphere spatial covectors, normalized boosts with |w| <= 3,
    a2 in [4, 12]: roots agree to 1e-9 absolutely, are real, and are
    separated by at least the distinctness gap.  The oracle scans every
    sample of a family in one call.
    """
    states, xibar = _roots_draws(seed, range(samples))
    scans = {family: bisection_roots(states, xibar, family)
             for family in ("shear", "sound")}
    max_err = {"shear": 0.0, "sound": 0.0}
    min_gap = {"shear": np.inf, "sound": np.inf}
    failures = 0
    rows = []
    for idx, s in enumerate(states):
        a2 = s.transport.a2
        for family in ("shear", "sound"):
            exact = sorted(cone_roots(family, xibar[idx], s.u, a2).as_set())
            scan = scans[family][idx]
            numeric = list(scan.roots) + [np.nan] * (2 - len(scan.roots))
            found = min(2, len(scan.roots))
            err = max((abs(exact[i] - numeric[i]) for i in range(found)), default=np.nan)
            if idx < ROOTS_ROW_SAMPLES:
                rows.append((family, a2, s.u[1:] @ s.u[1:], exact[0], exact[1],
                             numeric[0], numeric[1], err))
            if not scan.complete:
                failures += 1
                continue
            max_err[family] = max(max_err[family], err)
            min_gap[family] = min(min_gap[family], exact[1] - exact[0])
    return RootsReport(samples=samples, seed=seed, tolerance=ROOT_TOL,
                       gap_tolerance=GAP_TOL,
                       max_root_error={k: float(v) for k, v in max_err.items()},
                       min_gap={k: float(v) for k, v in min_gap.items()},
                       failures=failures, rows=tuple(rows))


@dataclass(frozen=True)
class TimeMatrixReport:
    samples: int
    seed: int
    tolerance: float
    max_relative_error: float
    min_closed_form: float

    @property
    def passed(self) -> bool:
        return self.max_relative_error <= self.tolerance and self.min_closed_form > 0.0

    def to_json(self) -> dict:
        return {
            "check": "time-matrix-determinant",
            "parameters": {"a1": 4.0, "a2_range": [4.0, 12.0]},
            "samples": self.samples,
            "seed": self.seed,
            "tolerances": {"relative": self.tolerance},
            "max_relative_error": self.max_relative_error,
            "min_closed_form": self.min_closed_form,
            "passed": self.passed,
        }


def time_matrix_suite(samples: int = 1000, seed: int = 17) -> TimeMatrixReport:
    """Closed-form time-matrix determinant vs pivoted elimination.

    Domain of the closed form: Minkowski metric, normalized u, a1 = 4.
    Positivity over the sampled a2 >= 4 regime is asserted as well.
    Sample idx draws from default_rng((seed, idx)): a2, then eta0 (with
    eta_form "power" for even idx and "constant" for odd), the spatial
    velocity w, and eps.
    """
    a2, eta0, eps = np.empty(samples), np.empty(samples), np.empty(samples)
    u = np.empty((samples, 4))
    for idx in range(samples):
        rng = np.random.default_rng((seed, idx))
        a2[idx] = rng.uniform(4.0, 12.0)
        eta0[idx] = rng.uniform(0.5, 2.0)
        w = rng.uniform(-3.0, 3.0, 3)
        u[idx] = np.sqrt(1.0 + w @ w), *w
        eps[idx] = rng.uniform(0.5, 2.0)
    g = minkowski()
    a1 = 4.0
    check_time_matrix_domain(g, u, a1)
    # eta is linear in eta0: eta0 times the eta0 = 1 model of each form
    power = np.arange(samples) % 2 == 0
    eta = eta0 * np.where(power, TransportModel(eta_form="power").eta(eps),
                          TransportModel(eta_form="constant").eta(eps))
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    matrices = symbol_components(u, eps, eta, a2 * eta, a1 * eta,
                                 g.components, g.inverse, e0)
    closed = det_time_matrix_closed_form(eta, eps, u[:, 1] ** 2 + u[:, 2] ** 2
                                         + u[:, 3] ** 2, a2)
    numeric = det_by_elimination(matrices)
    worst = np.max(np.abs(closed - numeric) / np.abs(closed), initial=0.0)
    return TimeMatrixReport(samples=samples, seed=seed, tolerance=TIME_MATRIX_TOL,
                            max_relative_error=float(worst),
                            min_closed_form=float(np.min(closed, initial=np.inf)))
