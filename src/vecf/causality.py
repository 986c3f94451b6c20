"""Cone slopes, light-cone containment verdicts, and parameter-space scans.

Containment is checked in the cotangent formulation: the characteristic
root surfaces xi0 = s(u, theta) |xibar| of each wave family must satisfy
|s| <= 1 for the family cone to contain the light cone's interior.  theta
is the angle between the spatial velocity and the spatial covector.
Criterion 04's scan, the (a1, a2) region map, the critical-angle search
and the solver's CFL speed read each cone's largest |slope| over a grid of
angles from one kernel, `_cone_extremes`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characteristics import (BATCH_VALUES, DISTINCTNESS_GAP, FLUID_FACTORS,
                              cone_coefficients, cone_pair, cone_quadratic,
                              cone_xi0, quartic_coefficients)
from .tensor import minkowski

BOUNDARY_TOL = 1e-12
# the angle grid of the causality scan, the critical-angle search and the
# solver's CFL speed
N_THETA = 720
THETAS = np.linspace(0.0, 2.0 * np.pi, N_THETA, endpoint=False)
# the critical-angle search refines its bracket to this width
REFINE_TOL = 1e-10
# criterion 04's scan, which `vecf causality-scan` runs: these a2, and
# `causality_scan`'s n_u speeds |w| from 0 to SCAN_U_MAX
SCAN_A2 = (4.0, 5.0, 6.0, 8.0, 10.0)
SCAN_U_MAX = 10.0
# the (a1, a2) grid of `vecf region-map`, whose a1 = 4, a2 >= 4 cells it judges
REGION_A1 = np.linspace(1.0, 6.0, 11)
REGION_A2 = np.linspace(1.0, 12.0, 12)


def _cone_extremes(alpha, beta, u2, thetas):
    """Each cone's largest |slope| over the angles, at each boost.

    alpha and beta (F,) hold F cones alpha (u.xi)^2 - beta xi.xi = 0, u2
    (n,) the boosts |w|^2, and thetas the angles between w and the unit
    spatial covector.  Returns three (F, n) arrays: the largest |slope|
    over the angles, inf where the pair is not real at some angle; the
    first angle that reaches it, NaN where the pair is not real; and
    whether the two slopes stay DISTINCTNESS_GAP apart at every angle.
    Each chunk of at most BATCH_VALUES (cone, boost, angle) points is
    screened by `cone_quadratic`, and its real rows take one `cone_pair`
    call; every point is elementwise, so a row has the same bits in any
    chunk.
    """
    u2 = np.asarray(u2, dtype=float)
    shape = (len(alpha), len(u2))
    a = np.repeat(np.asarray(alpha, dtype=float), len(u2))[:, None]
    b = np.repeat(np.asarray(beta, dtype=float), len(u2))[:, None]
    w2 = np.tile(u2, len(alpha))[:, None]
    cos = np.cos(thetas)
    smax, theta = np.full(len(w2), np.inf), np.full(len(w2), np.nan)
    distinct = np.zeros(len(w2), dtype=bool)
    rows = max(1, BATCH_VALUES // len(thetas))
    for i in range(0, len(w2), rows):
        c = slice(i, i + rows)
        wxi = np.sqrt(w2[c]) * cos
        D, R, real = cone_quadratic(a[c], b[c], w2[c], wxi)
        real = real.all(axis=1)
        k = i + np.flatnonzero(real)
        sp, sm = cone_pair(a[k], w2[k], wxi[real], D[real], R[real])
        vals = np.maximum(np.abs(sp), np.abs(sm))
        j = vals.argmax(axis=1)
        smax[k] = vals[np.arange(len(j)), j]
        theta[k] = thetas[j]
        distinct[k] = ~(np.abs(sp - sm) < DISTINCTNESS_GAP).any(axis=1)
    return smax.reshape(shape), theta.reshape(shape), distinct.reshape(shape)


def cone_slopes(family: str, u2: float, theta, a2: float):
    """Slopes (s-, s+) of a family's cone halves, xi0 / |xibar| at unit xibar.

    u2 is the squared spatial velocity |w|^2 of a normalized u; theta the
    angle between w and the spatial covector, so w.xibar = |w| cos(theta).
    Valid for the Minkowski metric.
    """
    if u2 < 0.0:
        raise ValueError("u2 must be non-negative")
    alpha, beta = cone_coefficients(family, a2)
    wxi = np.sqrt(u2) * np.cos(np.asarray(theta, dtype=float))
    lo, hi, _ = cone_xi0(alpha, beta, u2, wxi)
    return lo, hi


@dataclass(frozen=True)
class CriticalAngleReport:
    family: str
    u2: float
    a2: float
    theta_max: float
    slope_at_max: float
    flat_profile: bool
    on_axis: bool


def critical_angle_check(u2: float, a2: float, family: str = "shear") -> CriticalAngleReport:
    """Locate the theta maximizing |s+-| by the N_THETA-angle grid plus
    golden-section refinement to REFINE_TOL.

    For u2 = 0 the slopes are theta-independent and a flat profile is
    reported.  Otherwise the maximizer must land within 1e-6 of
    {0, pi, 2 pi}: the angular extrema sit on the axis sin(theta) = 0.
    """
    def score(th):
        sp, sm = cone_slopes(family, u2, th, a2)
        return max(abs(float(sp)), abs(float(sm)))

    if u2 == 0.0:
        return CriticalAngleReport(family, u2, a2, theta_max=0.0,
                                   slope_at_max=score(0.0),
                                   flat_profile=True, on_axis=True)
    alpha, beta = cone_coefficients(family, a2)
    theta_grid = float(_cone_extremes([alpha], [beta], [u2], THETAS)[1][0, 0])
    a, b = theta_grid - 2.0 * np.pi / N_THETA, theta_grid + 2.0 * np.pi / N_THETA
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = score(c), score(d)
    while b - a > REFINE_TOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = score(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = score(d)
    theta_star = 0.5 * (a + b)
    dist = min(abs(theta_star), abs(theta_star - np.pi), abs(theta_star - 2.0 * np.pi))
    return CriticalAngleReport(family, u2, a2, theta_max=float(theta_star),
                               slope_at_max=score(theta_star),
                               flat_profile=False, on_axis=bool(dist < 1e-6))


def _verdict(smax: float) -> str:
    if smax < 1.0 - BOUNDARY_TOL:
        return "strict"
    if abs(smax - 1.0) <= BOUNDARY_TOL:
        return "boundary"
    return "violated"


def _fluid_verdict(slopes) -> str:
    """The overall verdict from the largest |slope| of the flow, shear and
    sound cones, in that order."""
    fluid = [_verdict(s) for s in slopes]
    if "violated" in fluid:
        return "violated"
    if "boundary" in fluid:
        return "causal (boundary)"
    return "causal (strict)"


@dataclass(frozen=True)
class ScanRow:
    a1: float
    a2: float
    u2: float
    theta_max_p2: float
    smax_p2: float
    smax_p3: float
    verdict: str


def causality_scan(a2_list, u_max: float, n_u: int = 41, n_theta: int = N_THETA) -> list:
    """Deterministic grid scan over |w| in [0, u_max] for each a2.

    One row per (a2, |w|) cell with the theta-maximized shear and sound
    slopes; column names match the CSV contract of the command-line scan.
    The cone table holds at a1 = 4 only, and every row says so.
    Each distinct cone (alpha, beta) is evaluated once, all of them in one
    `_cone_extremes` call over the |w| x theta grid, so the flow cone, the
    same at every a2, is found once per scan; a row has the bits of that
    state's cones alone.
    """
    speeds = np.linspace(0.0, u_max, n_u)
    thetas = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    # per a2, the flow, shear and sound cones
    fluid = [[cone_coefficients(name, a2) for name in FLUID_FACTORS.families]
             for a2 in a2_list]
    index = {cone: i for i, cone in enumerate(dict.fromkeys(c for f in fluid for c in f))}
    alpha, beta = np.array(list(index), dtype=float).reshape(-1, 2).T
    # a |w| too large for its square gives NaN or inf slopes, which the
    # verdicts report and which raise no floating-point warning
    with np.errstate(over="ignore", invalid="ignore"):
        u2 = speeds * speeds
        smax, theta, _ = _cone_extremes(alpha, beta, u2, thetas)
    rows = []
    for a2, cones in zip(a2_list, fluid):
        flow, shear, sound = (index[c] for c in cones)
        for w2, slopes, th in zip(u2.tolist(), smax[[flow, shear, sound]].T.tolist(),
                                  theta[shear].tolist()):
            rows.append(ScanRow(a1=4.0, a2=float(a2), u2=w2, theta_max_p2=th,
                                smax_p2=slopes[1], smax_p3=slopes[2],
                                verdict=_fluid_verdict(slopes)))
    return rows


@dataclass(frozen=True)
class ScanVerdict:
    """Criterion 04 over `causality_scan` rows: the slope maxima per a2, judged.

    Every shear slope lies inside the light cone.  The sound cone touches
    it at a2 = 4, to BOUNDARY_TOL, and lies inside it by more than
    BOUNDARY_TOL at every other a2.
    """

    max_shear: dict        # a2 -> largest shear slope over its rows
    max_sound: dict        # a2 -> largest sound slope over its rows

    @property
    def passed(self) -> bool:
        return all(s < 1.0 for s in self.max_shear.values()) and all(
            abs(s - 1.0) <= BOUNDARY_TOL if a2 == 4.0 else s < 1.0 - BOUNDARY_TOL
            for a2, s in self.max_sound.items())


def scan_verdict(rows) -> ScanVerdict:
    """Criterion 04's verdict on the rows of `causality_scan`."""
    slopes = {}
    for r in rows:
        slopes.setdefault(r.a2, []).append((r.smax_p2, r.smax_p3))
    # np.max keeps a NaN wherever it stands
    maxima = {a2: np.max(s, axis=0).tolist() for a2, s in slopes.items()}
    return ScanVerdict({a2: m[0] for a2, m in maxima.items()},
                       {a2: m[1] for a2, m in maxima.items()})


@dataclass(frozen=True)
class RegionCell:
    a1: float
    a2: float
    label: str        # causal-strict | causal-boundary | hyperbolic-acausal | non-hyperbolic
    max_abs_slope: float


_REGION_LABELS = {"strict": "causal-strict", "boundary": "causal-boundary",
                  "violated": "hyperbolic-acausal"}


def hyperbolicity_region_map(a1_grid, a2_grid, u_samples=None, n_theta: int = 64) -> list:
    """Classify the sound-sector quartic over an (a1, a2) grid.

    Per cell: extract the quartic coefficients (A, B, C) in
    X = (u.xi)^2, Y = xi.xi; demand a non-negative discriminant
    (B^2 - 4AC >= 0, real quadratic factors), hyperbolicity of each factor
    over sampled boosts and directions, and slopes <= 1.  The degenerate
    leading coefficients (A ~ 0 or C ~ 0) reduce to light-cone or
    flow-cone factors and are classified accordingly.  The coefficients
    of all cells come from one batched `quartic_coefficients` call, each
    with the bits of its own extraction.  Every factor is a cone: X - r Y
    is (1, r), with r ~ 0 the flow cone u.xi = 0, and Y is the light cone
    (0, 1).  The factors of every cell are classified together by one
    `_cone_extremes` call, on one (boost, angle) grid, and each cell reads
    its label from its factors.  A factor is hyperbolic iff every sampled
    direction yields two real roots separated beyond the distinctness gap;
    the flow cone's double root is a hyperbolic degree-1 factor.
    """
    if u_samples is None:
        u_samples = [0.0, 0.25, 1.0, 4.0]
    a1_grid = np.asarray(a1_grid, dtype=float)
    a2_grid = np.asarray(a2_grid, dtype=float)
    co = quartic_coefficients(np.repeat(a1_grid, len(a2_grid)), np.tile(a2_grid, len(a1_grid)),
                              np.array([1.0, 0.0, 0.0, 0.0]), minkowski())
    light = (0.0, 1.0)
    factors = []       # (alpha, beta) of every factor, cell by cell
    owned = []         # per cell: its slice of factors, or None
    for A, B, C in zip(co.A.tolist(), co.B.tolist(), co.C.tolist()):
        scale = max(1.0, abs(A), abs(B), abs(C))
        if abs(A) > 1e-9 * scale:
            disc = B * B - 4.0 * A * C
            if disc < 0.0:
                owned.append(None)
                continue
            rd = np.sqrt(disc)
            mine = [(1.0, (-B + rd) / (2.0 * A)), (1.0, (-B - rd) / (2.0 * A))]
        elif abs(B) > 1e-9 * scale:
            # A ~ 0: quartic = Y (B X + C Y)
            mine = [light, (1.0, -C / B)]
        elif abs(C) > 1e-9 * scale:
            mine = [light, light]
        else:          # degenerate
            owned.append(None)
            continue
        owned.append(slice(len(factors), len(factors) + len(mine)))
        factors += mine
    alpha, beta = np.array(factors, dtype=float).reshape(-1, 2).T
    # r ~ 0 is the flow cone u.xi = 0: real at every boost, with a double root
    flow = np.abs(beta) < 1e-12
    thetas = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    smax, _, distinct = _cone_extremes(alpha, np.where(flow, 0.0, beta), u_samples, thetas)
    hyperbolic = (flow | distinct.all(axis=1)).tolist()
    slopes = smax.max(axis=1).tolist()
    cells = []
    for (a1, a2), own in zip(((a1, a2) for a1 in a1_grid for a2 in a2_grid), owned):
        if own is None or not all(hyperbolic[own]):
            cells.append(RegionCell(float(a1), float(a2), "non-hyperbolic", np.inf))
            continue
        top = max(slopes[own])
        cells.append(RegionCell(float(a1), float(a2), _REGION_LABELS[_verdict(top)],
                                float(top)))
    return cells
