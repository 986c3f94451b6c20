"""Characteristic factors of the fluid symbol: closed forms, roots, Gevrey indices.

The determinant of the 5x5 fluid symbol factors into four families of
hyperbolic polynomials; each family is tracked here both as the full factor
appearing in the determinant and as its underlying base polynomial (the
thing whose real-root structure defines hyperbolicity):

    family   base polynomial
    flow     u.xi
    shear    (a2-1)(u.xi)^2 - xi.xi
    sound    -6[(a2+5)a2 + (a2^2+7a2-8) u.u](u.xi)^2 + 6(a2+2)(1 + 5 u.u) xi.xi
    light    xi.xi

The factor is the base polynomial raised to its power in the determinant;
flow's also carries the prefactor eta^4/(12 eps), and light's is the
gravitational block.  u.u is kept explicit in the sound factor; it is not
replaced by -1.  `FAMILY_TABLE` holds one record per family: the base
degree, the power and the cone.  At normalized u on the Minkowski metric
every family's characteristic cone is alpha (u.xi)^2 - beta xi.xi = 0, and
`cone_xi0` is the one closed form for its xi0 roots: every closed-form
root and slope evaluates it, and every containment verdict and CFL speed
its two halves `cone_quadratic` and `cone_pair`, through the one kernel
`causality._cone_extremes`.  The bisection oracle evaluates
the base polynomials instead, so it checks the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .symbol import _dot, symbol_contractions
from .tensor import Metric4, minkowski, validate_metrics

DISTINCTNESS_GAP = 1e-8  # least separation of distinct roots, for unit directions
# a batched oracle's temporaries hold at most about this many float64
# values (64 KB); several are alive at once.  With 0.25 MB temporaries the
# heap was trimmed and grown again around every chunk: the causality scan
# of the claims benchmark took about 2200 page faults per call, and none
# at 64 KB, where it also ran 30% faster.
BATCH_VALUES = 8192
# a cone whose xi0^2 coefficient D is smaller in magnitude is degenerate
DEGENERATE_D = 1e-14
# bisection_roots scans its interval on this many uniform steps, and
# bisects each bracket to this absolute width
BISECTION_GRID = 1024
BISECTION_TOL = 1e-12


@dataclass(frozen=True)
class FactorEntry:
    """A factor family: its base polynomial's degree, its power in det m and,
    for the four families of the table, its cone as a2 -> (alpha, beta)."""

    family: str
    degree: int
    multiplicity: int
    cone: Callable | None = None


@dataclass(frozen=True)
class FactorSet:
    """Bookkeeping of hyperbolic factors; drives the Gevrey-index arithmetic."""

    entries: tuple

    @property
    def families(self) -> tuple:
        return tuple(e.family for e in self.entries)

    @property
    def total_degree(self) -> int:
        return sum(e.degree * e.multiplicity for e in self.entries)

    @property
    def factor_count(self) -> int:
        return sum(e.multiplicity for e in self.entries)


# the cone alpha (u.xi)^2 - beta xi.xi = 0 at normalized u on Minkowski is
# the base polynomial up to a nonzero factor (sound's is 12, light's is -1),
# and for flow its square
FAMILY_TABLE = {e.family: e for e in (
    FactorEntry("flow", 1, 4, lambda a2: (1.0, 0.0)),
    FactorEntry("shear", 2, 2, lambda a2: (a2 - 1.0, 1.0)),
    FactorEntry("sound", 2, 1, lambda a2: (a2 - 4.0, 2.0 * (a2 + 2.0))),
    FactorEntry("light", 2, 10, lambda a2: (0.0, 1.0)),
)}
FAMILIES = tuple(FAMILY_TABLE)

FLUID_FACTORS = FactorSet(entries=tuple(FAMILY_TABLE[f] for f in ("flow", "shear", "sound")))
COUPLED_FACTORS = FactorSet(entries=FLUID_FACTORS.entries + (FAMILY_TABLE["light"],))


def _family(family: str) -> FactorEntry:
    if family not in FAMILY_TABLE:
        raise ValueError(f"unknown factor family {family!r}")
    return FAMILY_TABLE[family]


def base_degree(family: str) -> int:
    return _family(family).degree


def cone_coefficients(family: str, a2: float) -> tuple:
    """(alpha, beta) of a family's cone alpha (u.xi)^2 - beta xi.xi = 0."""
    return _family(family).cone(a2)


def factor_base_values(family: str, uxi, xixi, uu, a2):
    """A family's base polynomial from the contractions (u.xi, xi.xi, u.u) and a2.

    The one copy of the table's formulas; the arguments are scalars or
    arrays that broadcast together.
    """
    if family == "flow":
        return uxi
    if family == "shear":
        return (a2 - 1.0) * uxi ** 2 - xixi
    if family == "sound":
        return (-6.0 * ((a2 + 5.0) * a2 + (a2 ** 2 + 7.0 * a2 - 8.0) * uu) * uxi ** 2
                + 6.0 * (a2 + 2.0) * (1.0 + 5.0 * uu) * xixi)
    if family == "light":
        return xixi
    raise ValueError(f"unknown factor family {family!r}")


def factor_values(family: str, base, eta, eps):
    """The factor as it enters the determinant: its base polynomial to its power.

    Only flow's prefactor eta^4 / (12 eps) reads eta and eps; arguments
    are scalars or arrays that broadcast together.
    """
    p = _family(family).multiplicity
    if family == "flow":
        return eta ** p / (12.0 * eps) * base ** p
    return base ** p


def sound_quartic_general(u, xi, g, ginv, a1, a2):
    """Degree-4 sound-sector polynomial for arbitrary (a1, a2).

    u (..., 4), xi (..., 4), g and g^-1 (..., 4, 4), a1 and a2 (...);
    leading axes broadcast, so one state is the call without them and K
    states the call with leading axis K.  The contractions are
    `symbol_contractions` sums and every term is elementwise, so a state
    has the same bits alone as in a batch.  Powers go through
    np.float_power, which is libm's pow for scalars and arrays alike; `**`
    on an array takes numpy's own routines, whose last bits differ.

    Transcribed term by term from the computer-algebra expansion of the
    symbol determinant, with no algebraic simplification: the eleven term
    groups below keep their per-component u_mu u^mu / u_mu xi^mu products
    exactly as generated.  For a1 = 4 the (xi.xi)^2 group vanishes and the
    whole expression collapses to (u.xi)^2 times the sound factor.
    """
    u = np.asarray(u, dtype=float)
    xi = np.asarray(xi, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    xi_up, u_dn, uxi, xixi, _ = symbol_contractions(u, xi, g, ginv)
    pw = np.float_power

    total = 0.0
    # group 1: quartic in u.xi, coefficient summed over u_mu u^mu components
    g1 = 0.0
    for mu in range(4):
        g1 += ((-2.0 * a1 - a2 + 2.0 * a1 * a2 + pw(a2, 2)) * u_dn[..., mu] * u[..., mu])
    total += -6.0 * g1 * pw(uxi, 4)
    # groups 2-5: cubic in u.xi times u_mu xi^mu, one group per component
    for mu in range(4):
        total += (-2.0 * (-a2 + 4.0 * a1 * a2 + 3.0 * pw(a2, 2)) * u_dn[..., mu]
                  * pw(uxi, 3) * xi_up[..., mu])
    # group 6: quadratic in u.xi times xi.xi, coefficient summed over components
    g6 = 0.0
    for mu in range(4):
        g6 += (3.0 * a1 + 2.0 * a2 + a1 * a2) * u_dn[..., mu] * u[..., mu]
    total += 5.0 * g6 * pw(uxi, 2) * xixi
    # groups 7-10: linear in u.xi times u_mu xi^mu times xi.xi
    for mu in range(4):
        total += ((3.0 * a1 + 2.0 * a2 + a1 * a2) * u_dn[..., mu]
                  * uxi * xi_up[..., mu] * xixi)
    # group 11: (xi.xi)^2, the group that vanishes identically at a1 = 4
    g11 = 0.0
    for mu in range(4):
        g11 += (4.0 * a2 - a1 * a2) * u_dn[..., mu] * u[..., mu]
    total += g11 * pw(xixi, 2)
    return total


@dataclass(frozen=True)
class QuarticCoefficients:
    """A, B, C and the held-out residual: floats for one cell, arrays for K."""

    A: object
    B: object
    C: object
    residual: object


def quartic_coefficients(a1, a2, u, g) -> QuarticCoefficients:
    """Coefficients (A, B, C) of the sound quartic q = A X^2 + B X Y + C Y^2.

    X = (u.xi)^2 and Y = xi.xi, and q is read at four fixed covectors.
    p = e1 - (u^1 / u.u) u_flat is orthogonal to u, so X = 0 there and
    C = q(p) / Y_p^2.  u_flat + s p, s = 1, 2, 3, share X = (u.u)^2 and have
    Y_s = u.u + s^2 Y_p.  With r_s = q_s - C Y_s^2, s = 1 and 2 give
    B = (r_1 - r_2) / (X (Y_1 - Y_2)) and A = (r_1 - B X Y_1) / X^2; s = 3
    is held out, and its relative residual must be <= 1e-8.  At u = e0 on
    Minkowski, p = e1 and u_flat + p is null, so C and A are single quartic
    values.  u must be non-null, and |Y_p| >= 1e-3, which fails only for
    spacelike u.

    a1 and a2 are scalars, giving float coefficients, or 1-D arrays of K
    cells, giving arrays.  Every step is elementwise, so a cell has the
    same bits alone as in a batch.
    """
    metric = g if isinstance(g, Metric4) else Metric4.from_components(np.asarray(g, float))
    gmat, ginv = metric.components, metric.inverse
    u = np.asarray(u, dtype=float).reshape(4)
    a1, a2 = np.broadcast_arrays(np.asarray(a1, dtype=float), np.asarray(a2, dtype=float))
    single = a1.ndim == 0
    a1, a2 = a1.reshape(-1), a2.reshape(-1)
    u_dn = gmat @ u
    uu = float(u @ u_dn)
    if abs(uu) < 1e-12:
        raise ValueError("u must be non-null for coefficient extraction")
    p = np.array([0.0, 1.0, 0.0, 0.0]) - u[1] / uu * u_dn
    xis = np.array([p, u_dn + p, u_dn + 2.0 * p, u_dn + 3.0 * p])
    # Y_p and the X, Y of each covector take the quartic's own
    # contractions, so C = q(p) / Y_p^2 divides like by like
    _, _, uxi, xixi, _ = symbol_contractions(u, xis, gmat, ginv)
    y_p = float(xixi[0])
    if abs(y_p) < 1e-3:
        raise ValueError(f"covector orthogonal to u near the light cone: Y_p = {y_p:.3e}")
    X, Y = uxi[1:] ** 2, xixi[1:]
    # a cell whose values overflow gets a non-finite residual, which fails
    # the check below; that check, not a floating-point warning, reports it
    with np.errstate(over="ignore", invalid="ignore"):
        q = sound_quartic_general(u, xis[:, None], gmat, ginv, a1, a2)
        C = q[0] / y_p ** 2
        r = q[1:3] - C * Y[:2, None] ** 2
        B = (r[0] - r[1]) / (X[0] * (Y[0] - Y[1]))
        A = (r[0] - B * X[0] * Y[0]) / X[0] ** 2
        terms = (A * X[2] ** 2, B * X[2] * Y[2], C * Y[2] ** 2)
        scale = np.maximum.reduce([np.ones_like(C), np.abs(q[3])] + [np.abs(t) for t in terms])
        resid = np.abs(sum(terms) - q[3]) / scale
    bad = np.flatnonzero(~(resid <= 1e-8))
    if bad.size:
        k = bad[0]
        raise RuntimeError(f"quartic coefficient extraction failed at a1 = {a1[k]:g}, "
                           f"a2 = {a2[k]:g}: held-out residual {resid[k]:.2e}")
    return QuarticCoefficients(*(float(c[0]) if single else c for c in (A, B, C, resid)))


def cone_quadratic(alpha, beta, w2, wxi, xb2=1.0):
    """(D, R, real) of the cone alpha (u.xi)^2 - beta xi.xi = 0 as a quadratic in xi0.

    At u = (sqrt(1 + w2), w) on the Minkowski metric, with w2 = |w|^2,
    wxi = w.xibar and xb2 = |xibar|^2 scalars or broadcasting arrays, the
    cone is

        D xi0^2 + 2 alpha u0 (w.xibar) xi0 + alpha (w.xibar)^2 - beta |xibar|^2,

    D = alpha (1 + w2) + beta, and R = beta (D |xibar|^2 - alpha (w.xibar)^2)
    is its reduced discriminant.  real, broadcast to R's shape, is False
    where the xi0 pair is not real and finite: |D| < DEGENERATE_D or
    R < 0.  This is the one definition of D, R and that screen: `cone_xi0`
    raises where real is False, and `causality._cone_extremes`, the kernel
    of the scan, the region map and the CFL speed, screens its grid and
    hands the real points to `cone_pair`.
    """
    D = alpha * (1.0 + w2) + beta
    R = beta * (D * xb2 - alpha * wxi ** 2)
    return D, R, ~((np.abs(D) < DEGENERATE_D) | (R < 0.0))


def cone_pair(alpha, w2, wxi, D, R):
    """The xi0 roots ((-alpha u0 w.xibar - sqrt R) / D, (-alpha u0 w.xibar + sqrt R) / D).

    D and R are `cone_quadratic`'s at points where it finds the pair real;
    every step is elementwise, so a point has the same bits in any batch.
    """
    drift = alpha * wxi * np.sqrt(1.0 + w2)
    root = np.sqrt(R)
    return -(drift + root) / D, -(drift - root) / D


def cone_xi0(alpha, beta, w2, wxi, xb2=1.0):
    """xi0 roots of alpha (u.xi)^2 - beta xi.xi = 0 at u = (sqrt(1 + w2), w).

    Arguments as `cone_quadratic`.  Returns `cone_pair`'s (minus, plus) and
    the radicand R.  Raises ValueError where the pair is not real and
    finite, a vanishing D or a negative radicand R.
    """
    D, R, real = cone_quadratic(alpha, beta, w2, wxi, xb2)
    if not np.all(real):
        if np.any(np.abs(D) < DEGENERATE_D):
            raise ValueError("vanishing xi0^2 coefficient; degenerate cone")
        raise ValueError(f"negative radicand {np.min(R):.3e}; no real closed-form roots")
    return (*cone_pair(alpha, w2, wxi, D, R), R)


def cone_roots_batch(family: str, xibar, u, a2):
    """(minus, plus, R) of `cone_xi0` for a family's cone at K states.

    xibar (K, 3), u (K, 4) and a2 (K,); Minkowski metric and normalized u,
    checked for the whole batch.  |w|^2, w.xibar and |xibar|^2 are
    stacked (1, 3) @ (3, 1) products, each the dot of one state's vectors,
    so a state has the same bits alone as in a batch.
    """
    uu = -u[:, 0] ** 2 + u[:, 1] ** 2 + u[:, 2] ** 2 + u[:, 3] ** 2
    off = np.flatnonzero(np.abs(uu + 1.0) > 1e-10)
    if off.size:
        raise ValueError(f"closed-form roots need normalized u; u.u = {uu[off[0]]}")
    w, xb = u[:, None, 1:], xibar[:, None, :]
    wT, xbT = u[:, 1:, None], xibar[:, :, None]
    alpha, beta = cone_coefficients(family, a2)
    return cone_xi0(alpha, beta, (w @ wT)[:, 0, 0], (w @ xbT)[:, 0, 0], (xb @ xbT)[:, 0, 0])


@dataclass(frozen=True)
class RootScan:
    """Outcome of numeric root isolation in the time component."""

    roots: tuple
    expected_count: int
    factor_multiplicity: int
    min_gap: float

    @property
    def found_count(self) -> int:
        return len(self.roots)

    @property
    def complete(self) -> bool:
        return self.found_count == self.expected_count


def _line_contractions(dirs, u, g, ginv):
    """The contractions on the lines xi(t) = t e0 + (0, xibar) of K pairs.

    dirs (K, 3), u (K, 4), g and g^-1 (K, 4, 4).  Returns (u.e0, u.xibar,
    g^00, 2 e0^a xibar_a, xibar.xibar, u.u), each (K,), the coefficients
    of u.xi(t) and xi.xi(t) in `_line_base_values`.  Every contraction is a
    `_dot` of one pair's vectors.
    """
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    xb = np.zeros((len(dirs), 4))
    xb[:, 1:] = dirs
    e0_up, _, ue0, g00, uu = symbol_contractions(u, e0, g, ginv)
    _, _, uxb, xbxb, _ = symbol_contractions(u, xb, g, ginv)
    return ue0, uxb, g00, 2.0 * _dot(e0_up, xb), xbxb, uu


def _line_base_values(family: str, t, line, a2):
    """A family's base polynomial at times t on lines of `_line_contractions`.

    line holds the six contractions and a2 the parameter, each broadcasting
    against t; elementwise,

        u.xi(t) = t (u.e0) + u.xibar,
        xi.xi(t) = (g^00 t + 2 e0^a xibar_a) t + xibar.xibar.
    """
    ue0, uxb, g00, cross, xbxb, uu = line
    return factor_base_values(family, t * ue0 + uxb, (g00 * t + cross) * t + xbxb, uu, a2)


def bisection_roots(family: str, xibar, u, a2, g=None) -> list:
    """Roots of t -> base(family, state, (t, xibar)) by sign bracketing + bisection.

    The arguments follow `cone_roots_batch`: xibar (K, 3), or one spatial
    covector (3,) for every pair, u (K, 4) and a2 (K,).  g is None for the
    Minkowski metric, or components (4, 4) shared by every pair or
    (K, 4, 4), validated and inverted once by `validate_metrics`.  Returns
    a list of K RootScans, one per pair.

    Each pair's state contracts once, with e0 and with (0, xibar), in its
    own g and g^-1 (`_line_contractions`); u.xi and xi.xi are then
    polynomials in t, and the base polynomial is `factor_base_values` of
    them.  It is affine or quadratic in t, so its coefficients are
    recovered from three evaluations and give a Cauchy bound for the scan
    interval.  Sign changes on a uniform grid of BISECTION_GRID steps are
    refined by bisection to the absolute width BISECTION_TOL.  The grids
    are evaluated in batched calls of at most BATCH_VALUES values, and the
    brackets of every pair are halved in one batched call per step.  Each
    bracket follows its own rules, as if bisected alone, and every
    evaluation is elementwise, so a pair's scan has the same bits alone as
    in a batch.  A count mismatch against
    the base degree is reported through the returned scan, never dropped.
    """
    u = np.asarray(u, dtype=float)
    k = len(u)
    dirs = np.asarray(xibar, dtype=float)
    if dirs.shape not in ((3,), (k, 3)):
        raise ValueError(f"xibar must be (3,) or ({k}, 3) for {k} states, got {dirs.shape}")
    if not np.all(np.any(dirs != 0.0, axis=-1)):
        raise ValueError("spatial covector must be nonzero")
    deg = base_degree(family)
    if k == 0:
        return []
    g, ginv = ((minkowski().components, minkowski().inverse) if g is None
               else validate_metrics(g))
    pairs = np.arange(k)
    dirs = np.broadcast_to(dirs, (k, 3))
    g, ginv = (np.broadcast_to(a, (k, 4, 4)) for a in (g, ginv))
    a2 = np.broadcast_to(np.asarray(a2, dtype=float), (k,))
    line = _line_contractions(dirs, u, g, ginv)

    def base(t, p):
        """The base polynomial at times t (L, M) on the lines of pairs p (L,)."""
        return _line_base_values(family, t, [c[p, None] for c in line], a2[p, None])

    pm1, p0, pp1 = base(np.tile([-1.0, 0.0, 1.0], (k, 1)), pairs).T
    # magnitudes of the coefficients of t^2, t and 1
    c2 = np.abs(0.5 * (pp1 + pm1) - p0)
    c1 = np.abs(0.5 * (pp1 - pm1))
    c0 = np.abs(p0)
    affine = (np.full(k, True) if deg == 1
              else c2 < 1e-14 * np.maximum(np.maximum(1.0, c1), c0))
    quad = ~affine
    bound = np.empty(k)
    bound[affine] = 2.0 * (1.0 + c0[affine] / np.maximum(c1[affine], 1e-300))
    bound[quad] = 2.0 * (1.0 + np.maximum(c1[quad], c0[quad]) / c2[quad])

    # grid zeros are roots as they stand; sign changes become brackets
    owners, roots, brackets = [], [], []
    chunk = max(1, BATCH_VALUES // (BISECTION_GRID + 1))
    for i in range(0, k, chunk):
        p = pairs[i:i + chunk]
        ts = np.linspace(-bound[p], bound[p], BISECTION_GRID + 1, axis=1)
        vals = base(ts, p)
        row, col = np.nonzero(vals == 0.0)
        owners.append(p[row])
        roots.append(ts[row, col])
        fa, fb = vals[:, :-1], vals[:, 1:]
        row, col = np.nonzero((fa != 0.0) & (fa * fb < 0.0))
        brackets.append((p[row], ts[row, col], ts[row, col + 1], fa[row, col]))
    owner, lo, hi, flo = (np.concatenate(a) for a in zip(*brackets))
    live = np.flatnonzero(hi - lo > BISECTION_TOL)
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        fm = base(mid[:, None], owner[live])[:, 0]
        zero = fm == 0.0
        left = flo[live] * fm < 0.0
        right = ~left & ~zero
        hi[live[left]] = mid[left]
        lo[live[right]], flo[live[right]] = mid[right], fm[right]
        lo[live[zero]] = hi[live[zero]] = mid[zero]
        live = live[hi[live] - lo[live] > BISECTION_TOL]
    owner = np.concatenate(owners + [owner])
    roots = np.concatenate(roots + [0.5 * (lo + hi)])
    # by pair, then by value; stable, so equal roots keep the order found
    order = np.lexsort((roots, owner))
    scans = []
    for found in np.split(roots[order], np.searchsorted(owner[order], pairs[1:])):
        merged = []
        for r in found.tolist():
            if not merged or r - merged[-1] > BISECTION_TOL * 10.0:
                merged.append(r)
        gaps = [merged[i + 1] - merged[i] for i in range(len(merged) - 1)]
        scans.append(RootScan(roots=tuple(merged), expected_count=deg,
                              factor_multiplicity=_family(family).multiplicity,
                              min_gap=float(min(gaps)) if gaps else np.inf))
    return scans


def gevrey_index(f: FactorSet) -> Fraction:
    """Q/(Q-1) as an exact rational, Q = number of hyperbolic factors."""
    q = f.factor_count
    if q < 2:
        raise ValueError(f"Gevrey index needs at least 2 factors, got {q}")
    return Fraction(q, q - 1)


@dataclass(frozen=True)
class GevreyReport:
    fluid: Fraction
    coupled: Fraction
    passed: bool


def gevrey_check() -> GevreyReport:
    """Criterion 05: the indices of FLUID_FACTORS and COUPLED_FACTORS must be
    the paper's 7/6 and 17/16."""
    fluid, coupled = gevrey_index(FLUID_FACTORS), gevrey_index(COUPLED_FACTORS)
    return GevreyReport(fluid, coupled,
                        fluid == Fraction(7, 6) and coupled == Fraction(17, 16))
