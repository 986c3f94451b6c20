"""Seeded verification suites: the facts the package exists to check.

Every suite draws its samples as one (K, Q) array of uniforms from one
generator, default_rng(seed), and maps each column to one quantity by an
affine map; sample idx is row idx.  Numpy fills the array row by row, so
the first n samples of a run of N >= n are exactly the run of n.  Every
report carries the tolerances it used.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .characteristics import (BATCH_VALUES, DISTINCTNESS_GAP, FLUID_FACTORS,
                              bisection_roots, cone_roots_batch, factor_base_values,
                              factor_values, quartic_coefficients, sound_quartic_general)
from .constitutive import TransportModel
from .equations import cell_factors, symbol_matrix, time_matrix_solve
from .symbol import (_dot, check_time_matrix_domain, det_by_elimination,
                     det_time_matrix_closed_form, symbol_contractions)
from .tensor import minkowski, near_minkowski_components, validate_metrics

DET_TOL = 1e-9
COLLAPSE_TOL = 1e-9
COEFF_ZERO_TOL = 1e-12
ROOT_TOL = 1e-9
TIME_MATRIX_TOL = 1e-10
# the a2 range every suite draws from, uniformly
A2_RANGE = (4.0, 12.0)


# the factorization suite's viscosity model; a2 is drawn per sample, and
# eta does not depend on it
FACTORIZATION_MODEL = TransportModel(a1=4.0, eta0=1.0)


def _draw_a2(r):
    """a2 in A2_RANGE from the uniforms r in [0, 1)."""
    lo, hi = A2_RANGE
    return lo + (hi - lo) * r


def _alternating_metrics(delta: float, uniforms):
    """Unvalidated metrics (K, 4, 4): Minkowski on even rows, and on odd
    rows `near_minkowski_components` of that row's 17 uniforms."""
    odd = np.arange(len(uniforms)) % 2 == 1
    return np.where(odd[:, None, None], near_minkowski_components(delta, uniforms),
                    minkowski().components)


def _normalized(g, w):
    """u (K, 4) with spatial part w (K, 3), u^0 > 0 and g(u, u) = -1.

    g is one metric (4, 4) or one per row (K, 4, 4); u^0 solves the
    quadratic g00 (u^0)^2 + b u^0 + c = 0, each contraction summed term
    by term, so a row's u has the same bits in any batch.
    """
    g = np.broadcast_to(g, (len(w), 4, 4))
    s = np.column_stack([np.zeros(len(w)), w])
    g00 = g[:, 0, 0]
    b = 2.0 * _dot(g[:, 0], s)
    c = _dot(s, _dot(g, s[:, None, :])) + 1.0
    u0 = (-b - np.sqrt(b * b - 4.0 * g00 * c)) / (2.0 * g00)
    return np.column_stack([u0, w])


def _factorization_draws(seed: int, samples: int):
    """Draws of the factorization suite, as arrays; sample idx is row idx.

    One (samples, 27) array of uniforms r from default_rng(seed), by
    column: 0 a2 in A2_RANGE, 1 eps in [0.5, 2), 2-4 the spatial velocity
    w in [-3, 3), 5 the time component u^0 in [0.5, 3), 6-9 the covector
    xi in [-2, 2), 10-26 the perturbed metric (delta 0.05) of odd rows.  Even rows use
    the Minkowski metric; rows with idx % 3 == 0 ignore column 5, and
    their u^0 solves g(u, u) = -1.  Returns a2, eps (K,), u, xi (K, 4)
    and the unvalidated metric components (K, 4, 4).
    """
    r = np.random.default_rng(seed).random((samples, 27))
    a2 = _draw_a2(r[:, 0])
    eps = 0.5 + 1.5 * r[:, 1]
    w = -3.0 + 6.0 * r[:, 2:5]
    g = _alternating_metrics(0.05, r[:, 10:27])
    u = np.column_stack([0.5 + 2.5 * r[:, 5], w])
    norm = np.arange(samples) % 3 == 0
    u[norm] = _normalized(g[norm], w[norm])
    xi = -2.0 + 4.0 * r[:, 6:10]
    return a2, eps, u, xi, g


def _magnitude_scale(m: np.ndarray):
    """Error scale for 5x5 determinant comparisons, per matrix of (..., 5, 5).

    max(1, E^5) with E the largest entry magnitude: a five-fold product of
    entries bounds every elimination intermediate, so 1e-9 of this scale
    sits far above the achievable cancellation noise while still scaling
    like |xi|^10 times the state-dependent coefficients.
    """
    return np.maximum(1.0, np.abs(m).max(axis=(-2, -1)) ** 5)


def _first_worst(errors):
    """(largest error, the lowest index that reaches it).

    A NaN error counts as the largest.  With no positive error the index
    is -1.
    """
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        return 0.0, -1
    # argmax returns the first NaN if there is one, else the first maximum
    idx = int(np.argmax(errors))
    worst = float(errors[idx])
    if worst > 0.0 or np.isnan(worst):
        return worst, idx
    return 0.0, -1


@dataclass(frozen=True)
class FactorizationReport:
    samples: int
    seed: int
    tolerance: float
    max_scaled_error: float
    worst_index: int
    runtime_seconds: float

    @property
    def passed(self) -> bool:
        return self.max_scaled_error <= self.tolerance

    def to_json(self) -> dict:
        return {
            "check": "determinant-factorization",
            "parameters": {"a1": 4.0, "a2_range": list(A2_RANGE), "metric_delta": 0.05},
            "samples": self.samples,
            "seed": self.seed,
            "tolerances": {"scaled_error": self.tolerance},
            "max_scaled_error": self.max_scaled_error,
            "worst_index": self.worst_index,
            "runtime_seconds": self.runtime_seconds,
            "passed": self.passed,
        }


def factorization_suite(samples: int = 10000, seed: int = 7,
                        threads: int = 1) -> FactorizationReport:
    """det(symbol) == flow * shear * sound over seeded random states.

    States mix Minkowski with perturbed metrics and normalized with
    unnormalized u; errors are scaled by max(1, E^5, |det|, |product|)
    with E the largest symbol entry.  The symbols are the block view of
    the formula the solver steps.  The metrics are validated as one stack,
    and the symbols and the factors read the same contractions.
    """
    # accepted only as 1 until the benchmark stops passing it (ROADMAP item 1)
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads}")
    t0 = time.perf_counter()
    a2, eps, u, xi, g = _factorization_draws(seed, samples)
    g, ginv = validate_metrics(g)
    eta = FACTORIZATION_MODEL.eta(eps)
    f = cell_factors(eps, (eta, a2 * eta, FACTORIZATION_MODEL.a1 * eta))
    symbols = symbol_matrix(u, f, g, ginv, xi)
    _, _, uxi, xixi, uu = symbol_contractions(u, xi, g, ginv)
    prods = np.ones(samples)
    for family in FLUID_FACTORS.families:
        prods *= factor_values(family, factor_base_values(family, uxi, xixi, uu, a2),
                               eta, eps)
    dets = det_by_elimination(symbols)
    errors = np.abs(dets - prods) / np.maximum(
        np.maximum(_magnitude_scale(symbols), np.abs(dets)), np.abs(prods))
    worst, worst_idx = _first_worst(errors)
    return FactorizationReport(
        samples=samples, seed=seed, tolerance=DET_TOL,
        max_scaled_error=worst, worst_index=worst_idx,
        runtime_seconds=time.perf_counter() - t0,
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


def _collapse_draws(seed: int, samples: int):
    """Draws of the collapse suite, as arrays; sample idx is row idx.

    One (samples, 26) array of uniforms r from default_rng(seed), by
    column: 0 a2 in A2_RANGE, 1 the time component u^0 in [0.5, 3), 2-4
    the spatial velocity w in [-3, 3), 5-8 the covector xi in [-2, 2),
    9-25 the perturbed metric (delta 0.05) of odd rows.  Even rows use
    the Minkowski metric, and u is not normalized.  Returns a2 (K,), u,
    xi (K, 4) and the unvalidated metric components (K, 4, 4).
    """
    r = np.random.default_rng(seed).random((samples, 26))
    a2 = _draw_a2(r[:, 0])
    u = np.column_stack([0.5 + 2.5 * r[:, 1], -3.0 + 6.0 * r[:, 2:5]])
    xi = -2.0 + 4.0 * r[:, 5:9]
    return a2, u, xi, _alternating_metrics(0.05, r[:, 9:26])


def collapse_suite(samples: int = 1000, seed: int = 11) -> CollapseReport:
    """General quartic at a1=4 equals (u.xi)^2 times the sound factor.

    Also extracts the (xi.xi)^2 coefficient C: zero at a1 = 4 to 1e-12,
    nonzero at the off-regime points a1 in {1, 2, 6}.  The samples are
    checked in batches of BATCH_VALUES / 16, each metric stack validated
    at once; a NaN error counts as the largest and fails the suite.
    """
    a2_all, u_all, xi_all, g_all = _collapse_draws(seed, samples)
    worst = 0.0
    chunk = BATCH_VALUES // 16
    for start in range(0, samples, chunk):
        part = slice(start, start + chunk)
        a2, u, xi = a2_all[part], u_all[part], xi_all[part]
        g, ginv = validate_metrics(g_all[part])
        general = sound_quartic_general(u, xi, g, ginv, 4.0, a2)
        _, _, uxi, xixi, uu = symbol_contractions(u, xi, g, ginv)
        collapsed = uxi ** 2 * factor_base_values("sound", uxi, xixi, uu, a2)
        errors = np.abs(general - collapsed) / np.maximum(
            np.maximum(1.0, np.abs(general)), np.abs(collapsed))
        worst = np.max(errors, initial=worst)

    a1 = (4.0, 1.0, 2.0, 6.0)
    c = quartic_coefficients(np.array(a1), 6.0, np.array([1.0, 0.0, 0.0, 0.0]),
                             minkowski()).C
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
            "parameters": {"a1": 4.0, "a2_range": list(A2_RANGE)},
            "samples": self.samples,
            "seed": self.seed,
            "tolerances": {"absolute_root": self.tolerance, "distinctness": self.gap_tolerance},
            "max_root_error": self.max_root_error,
            "min_gap": self.min_gap,
            "failures": self.failures,
            "passed": self.passed,
        }


def _roots_draws(seed: int, samples: int):
    """Draws of the roots suite, as arrays; sample idx is row idx.

    One (samples, 8) array of uniforms r from default_rng(seed), by
    column: 0 a2 in A2_RANGE, 1-3 the direction of the spatial velocity w
    in [-3, 3), 4 its scale in [0, 1), 6 and 7 the unit spatial
    covector's z = 2 r - 1 and azimuth 2 pi r, which is uniform on the
    sphere.  Column 5 is unused: the roots do not depend on eps.  u is
    normalized for the Minkowski metric.  Returns a2 (K,), u (K, 4) and
    the covectors (K, 3).
    """
    r = np.random.default_rng(seed).random((samples, 8))
    a2 = _draw_a2(r[:, 0])
    u = _normalized(minkowski().components, (-3.0 + 6.0 * r[:, 1:4]) * r[:, 4:5])
    z, phi = 2.0 * r[:, 6] - 1.0, 2.0 * np.pi * r[:, 7]
    rho = np.sqrt(1.0 - z * z)
    return a2, u, np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


def roots_suite(samples: int = 1000, seed: int = 13) -> RootsReport:
    """Closed-form shear/sound roots vs the bisection oracle on unit directions.

    Unit-sphere spatial covectors, normalized boosts with |w| <= 3,
    a2 in A2_RANGE: roots agree to ROOT_TOL absolutely, are real, and are
    separated by at least the distinctness gap.  The closed forms and the
    oracle each take one call per family for every sample.
    """
    a2s, u, xibar = _roots_draws(seed, samples)
    families = ("shear", "sound")
    scans = {f: bisection_roots(f, xibar, u, a2s) for f in families}
    # (minus, plus) per sample, as sorted Python floats
    closed = {f: np.sort(np.column_stack(cone_roots_batch(f, xibar, u, a2s)[:2])).tolist()
              for f in families}
    max_err = dict.fromkeys(families, 0.0)
    min_gap = dict.fromkeys(families, np.inf)
    failures = 0
    rows = []
    for idx in range(samples):
        for family in families:
            exact = closed[family][idx]
            scan = scans[family][idx]
            numeric = list(scan.roots) + [np.nan] * (2 - len(scan.roots))
            found = min(2, len(scan.roots))
            err = max((abs(exact[i] - numeric[i]) for i in range(found)), default=np.nan)
            if idx < ROOTS_ROW_SAMPLES:
                rows.append((family, a2s[idx], u[idx, 1:] @ u[idx, 1:], exact[0], exact[1],
                             numeric[0], numeric[1], err))
            if not scan.complete:
                failures += 1
                continue
            max_err[family] = max(max_err[family], err)
            min_gap[family] = min(min_gap[family], exact[1] - exact[0])
    return RootsReport(samples=samples, seed=seed, tolerance=ROOT_TOL,
                       gap_tolerance=DISTINCTNESS_GAP,
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


def _time_matrix_draws(seed: int, samples: int):
    """Draws of the time-matrix suite, as arrays; sample idx is row idx.

    One (samples, 6) array of uniforms r from default_rng(seed), by
    column: 0 a2 in A2_RANGE, 1 eta0 in [0.5, 2), 2-4 the spatial velocity
    w in [-3, 3), 5 eps in [0.5, 2).  u is normalized for the Minkowski
    metric.  Returns a2, eta0, eps (K,) and u (K, 4).
    """
    r = np.random.default_rng(seed).random((samples, 6))
    u = _normalized(minkowski().components, -3.0 + 6.0 * r[:, 2:5])
    return _draw_a2(r[:, 0]), 0.5 + 1.5 * r[:, 1], 0.5 + 1.5 * r[:, 5], u


def time_matrix_suite(samples: int = 1000, seed: int = 17) -> TimeMatrixReport:
    """Closed-form time-matrix determinant vs pivoted elimination of m(e0)
    and the solver's closed-form inverse (`equations.time_matrix_solve`).

    Domain of the closed form: Minkowski metric, normalized u, a1 = 4.
    Positivity over the sampled a2 >= 4 regime is asserted as well.
    """
    a2, eta0, eps, u = _time_matrix_draws(seed, samples)
    g = minkowski()
    a1 = 4.0
    check_time_matrix_domain(g, u, a1)
    # eta is linear in eta0: eta0 times the eta0 = 1 model
    eta = eta0 * TransportModel().eta(eps)
    f = cell_factors(eps, (eta, a2 * eta, a1 * eta))
    matrices = symbol_matrix(u, f, g.components, g.inverse, np.array([1.0, 0.0, 0.0, 0.0]))
    closed = det_time_matrix_closed_form(eta, eps, u[:, 1] ** 2 + u[:, 2] ** 2
                                         + u[:, 3] ** 2, a2)
    error = np.maximum(np.abs(closed - det_by_elimination(matrices)),
                       np.abs(closed - time_matrix_solve(u.T, f)[1]))
    worst = np.max(error / np.abs(closed), initial=0.0)
    return TimeMatrixReport(samples=samples, seed=seed, tolerance=TIME_MATRIX_TOL,
                            max_relative_error=float(worst),
                            min_closed_form=float(np.min(closed, initial=np.inf)))
