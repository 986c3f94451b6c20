"""Cone slopes, light-cone containment verdicts, and parameter-space scans.

Containment is checked in the cotangent formulation: the characteristic
root surfaces xi0 = s(u, theta) |xibar| of each wave family must satisfy
|s| <= 1 for the family cone to contain the light cone's interior.  theta
is the angle between the spatial velocity and the spatial covector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characteristics import (BATCH_VALUES, DISTINCTNESS_GAP, FLUID_FACTORS,
                              cone_coefficients, cone_pair, cone_quadratic,
                              cone_xi0, quartic_coefficients)
from .tensor import minkowski

BOUNDARY_TOL = 1e-12


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


def critical_angle_check(u2: float, a2: float, family: str = "shear",
                         n_theta: int = 720, refine_tol: float = 1e-10) -> CriticalAngleReport:
    """Locate the theta maximizing |s+-| by dense grid plus golden-section.

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
    thetas = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    theta_grid = _family_cones(family, a2, [u2], thetas)[0].witness_theta
    a, b = theta_grid - 2.0 * np.pi / n_theta, theta_grid + 2.0 * np.pi / n_theta
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = score(c), score(d)
    while b - a > refine_tol:
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


@dataclass(frozen=True)
class FamilyCone:
    family: str
    max_abs_slope: float
    verdict: str           # "strict" | "boundary" | "violated"
    witness_theta: float


def _verdict(smax: float) -> str:
    if smax < 1.0 - BOUNDARY_TOL:
        return "strict"
    if abs(smax - 1.0) <= BOUNDARY_TOL:
        return "boundary"
    return "violated"


def _family_cones(family: str, a2: float, u2, thetas) -> list:
    """A family's FamilyCone at each boost |w|^2 of u2 (n,), over the angles.

    Each chunk of at most BATCH_VALUES (boost, angle) points is screened by
    `cone_quadratic`: a boost whose pair is not real at some angle has a
    violated cone with an infinite slope.  The other boosts of the chunk
    take one `cone_pair` call; every point is elementwise, so a boost's
    cone has the same bits in any chunk.
    """
    alpha, beta = cone_coefficients(family, a2)
    cos = np.cos(thetas)
    cones = []
    rows = max(1, BATCH_VALUES // len(thetas))
    for i in range(0, len(u2), rows):
        w2 = np.asarray(u2[i:i + rows], dtype=float)[:, None]
        wxi = np.sqrt(w2) * cos
        D, R, real = cone_quadratic(alpha, beta, w2, wxi)
        real = real.all(axis=1)
        if not real.all():
            w2, wxi, D, R = (a[real] for a in (w2, wxi, D, R))
        sp, sm = cone_pair(alpha, w2, wxi, D, R)
        vals = np.maximum(np.abs(sp), np.abs(sm))
        j = vals.argmax(axis=1)
        found = zip(vals[np.arange(len(j)), j].tolist(), thetas[j].tolist())
        for ok in real.tolist():
            smax, theta = next(found) if ok else (np.inf, np.nan)
            cones.append(FamilyCone(family, smax, _verdict(smax), theta))
    return cones


def _fluid_verdict(fams: dict) -> str:
    """The overall verdict from the flow, shear and sound cones."""
    fluid = [fams[k].verdict for k in FLUID_FACTORS.families]
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


def causality_scan(a2_list, u_max: float, n_u: int = 33, n_theta: int = 720) -> list:
    """Deterministic grid scan over |w| in [0, u_max] for each a2.

    One row per (a2, |w|) cell with the theta-maximized shear and sound
    slopes; column names match the CSV contract of the command-line scan.
    The cone table holds at a1 = 4 only, and every row says so.
    Each distinct cone (family, alpha, beta) takes one `_family_cones` call
    over the |w| x theta grid, so the flow cone, the same at every a2, is
    found once per scan; a row has the bits of that state's cones alone.
    """
    rows = []
    speeds = np.linspace(0.0, u_max, n_u)
    u2 = speeds * speeds
    thetas = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    found = {}
    for a2 in a2_list:
        cones = {}
        for name in FLUID_FACTORS.families:
            key = (name, *cone_coefficients(name, a2))
            if key not in found:
                found[key] = _family_cones(name, a2, u2, thetas)
            cones[name] = found[key]
        for i, w2 in enumerate(u2.tolist()):
            fams = {name: c[i] for name, c in cones.items()}
            rows.append(ScanRow(
                a1=4.0, a2=float(a2), u2=w2,
                theta_max_p2=fams["shear"].witness_theta,
                smax_p2=fams["shear"].max_abs_slope,
                smax_p3=fams["sound"].max_abs_slope,
                verdict=_fluid_verdict(fams),
            ))
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
    max_shear, max_sound = {}, {}
    for r in rows:
        max_shear[r.a2] = max(max_shear.get(r.a2, r.smax_p2), r.smax_p2)
        max_sound[r.a2] = max(max_sound.get(r.a2, r.smax_p3), r.smax_p3)
    return ScanVerdict(max_shear, max_sound)


@dataclass(frozen=True)
class RegionCell:
    a1: float
    a2: float
    label: str        # causal-strict | causal-boundary | hyperbolic-acausal | non-hyperbolic
    max_abs_slope: float


_REGION_LABELS = {"strict": "causal-strict", "boundary": "causal-boundary",
                  "violated": "hyperbolic-acausal"}


def _factor_slopes(r, u2, wxi):
    """(hyperbolic, max |slope|) of each quadratic factor (u.xi)^2 - r xi.xi.

    r (F,) holds the factors; u2 (n, 1) the boosts |w|^2 and wxi
    (n, n_theta) the matching w.xibar = |w| cos(theta) at unit xibar, the
    grid every factor is sampled on.  r ~ 0 is the flow cone u.xi = 0,
    whose double root is a hyperbolic degree-1 factor.  Any other factor
    is hyperbolic iff every sampled direction yields two real roots
    separated beyond the distinctness gap; a factor that is not has an
    infinite slope.  Each chunk of at most BATCH_VALUES values is screened
    by `cone_quadratic`, and its real factors take one `cone_pair` call;
    every point is elementwise, so a factor has the same bits in any chunk.
    """
    flow = np.abs(r) < 1e-12
    beta = np.where(flow, 0.0, r)[:, None, None]
    hyperbolic = np.zeros(len(r), dtype=bool)
    smax = np.full(len(r), np.inf)
    rows = max(1, BATCH_VALUES // wxi.size)
    for i in range(0, len(r), rows):
        D, R, real = cone_quadratic(1.0, beta[i:i + rows], u2, wxi)
        real = real.all(axis=(1, 2))
        s1, s2 = cone_pair(1.0, u2, wxi, D[real], R[real])
        f = i + np.flatnonzero(real)
        distinct = flow[f] | ~(np.abs(s1 - s2) < DISTINCTNESS_GAP).any(axis=(1, 2))
        hyperbolic[f[distinct]] = True
        smax[f[distinct]] = np.maximum(np.abs(s1[distinct]),
                                       np.abs(s2[distinct])).max(axis=(1, 2))
    return hyperbolic, smax


def hyperbolicity_region_map(a1_grid, a2_grid, u_samples=None, n_theta: int = 64) -> list:
    """Classify the sound-sector quartic over an (a1, a2) grid.

    Per cell: extract the quartic coefficients (A, B, C) in
    X = (u.xi)^2, Y = xi.xi; demand a non-negative discriminant
    (B^2 - 4AC >= 0, real quadratic factors), hyperbolicity of each factor
    over sampled boosts and directions, and slopes <= 1.  The degenerate
    leading coefficients (A ~ 0 or C ~ 0) reduce to light-cone or
    flow-cone factors and are classified accordingly; a light-cone
    factor's slope is the light row of the cone table.  The coefficients
    of all cells come from one batched `quartic_coefficients` call, each
    with the bits of its own extraction.  The quadratic factors of every
    cell are then classified together by `_factor_slopes`, on one
    (boost, angle) grid, and each cell reads its label from its factors.
    """
    if u_samples is None:
        u_samples = [0.0, 0.25, 1.0, 4.0]
    a1_grid = np.asarray(a1_grid, dtype=float)
    a2_grid = np.asarray(a2_grid, dtype=float)
    # every factor is sampled on the same (boost, angle) grid
    u2 = np.asarray(u_samples, dtype=float)[:, None]
    wxi = np.sqrt(u2) * np.cos(np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False))
    co = quartic_coefficients(np.repeat(a1_grid, len(a2_grid)), np.tile(a2_grid, len(a1_grid)),
                              np.array([1.0, 0.0, 0.0, 0.0]), minkowski())
    light_slope = max(abs(float(s)) for s in cone_slopes("light", 0.0, 0.0, 0.0))
    factors = []       # r of every factor X - r Y, cell by cell
    owned = []         # per cell: (light-cone factors, its slice of factors), or None
    for A, B, C in zip(co.A.tolist(), co.B.tolist(), co.C.tolist()):
        scale = max(1.0, abs(A), abs(B), abs(C))
        mine, light_cone_factors = [], 0
        if abs(A) > 1e-9 * scale:
            disc = B * B - 4.0 * A * C
            if disc < 0.0:
                owned.append(None)
                continue
            rd = np.sqrt(disc)
            mine = [(-B + rd) / (2.0 * A), (-B - rd) / (2.0 * A)]
        elif abs(B) > 1e-9 * scale:
            # A ~ 0: quartic = Y (B X + C Y); one light-cone factor
            light_cone_factors = 1
            mine = [-C / B]
        elif abs(C) > 1e-9 * scale:
            light_cone_factors = 2
        else:          # degenerate
            owned.append(None)
            continue
        owned.append((light_cone_factors, slice(len(factors), len(factors) + len(mine))))
        factors += mine
    hyperbolic, slopes = _factor_slopes(np.array(factors, dtype=float), u2, wxi)
    hyperbolic, slopes = hyperbolic.tolist(), slopes.tolist()
    cells = []
    for (a1, a2), own in zip(((a1, a2) for a1 in a1_grid for a2 in a2_grid), owned):
        if own is None or not all(hyperbolic[own[1]]):
            cells.append(RegionCell(float(a1), float(a2), "non-hyperbolic", np.inf))
            continue
        smax = max([light_slope if own[0] else 0.0] + slopes[own[1]])
        cells.append(RegionCell(float(a1), float(a2), _REGION_LABELS[_verdict(smax)],
                                float(smax)))
    return cells
