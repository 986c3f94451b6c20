"""Flat-space equation assembly: principal coefficients, first-order terms, oracle.

The five evolution rows are the four components of the stress-tensor
divergence (indices raised) plus the normalization-constraint row.  Each row
splits into a principal part (second derivatives, whose coefficients are the
fluid symbol's coefficients at pairs of basis covectors, applied to the
derivative vectors without forming blocks) and a first-order remainder B
from the constitutive tensor's divergence.  B's eight term groups are
collected into three scalar coefficients per cell, of u, the acceleration
and grad eps, and two vectors contracted once each with the velocity
gradient; the jet carries only the derivative rows that exist.

The divergence oracle pins all of it at once: the assembled rows must agree
with a finite-difference divergence of the stress tensor on manufactured
fields, and the discrepancy must vanish at the stencil's order.  The solver
steps the same rows, `equation_rows`, so the oracle certifies them.

Sign convention: one derivation step rewrites u^nu d(du_nu) through
d(u.u)/2; the first-order piece it leaves behind enters B with a minus
sign (the u_beta pi grad(eta pi pi) group below).  The oracle is the
arbiter for that sign and for every other coefficient.

The stage kernels (`cell_factors`, `assemble_lower_order`, `symbol_apply`,
`time_matrix_solve`) write every value and temporary into a Scratch: given
one, a kernel creates no array and calls no BLAS routine.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .characteristics import BATCH_VALUES
from .constitutive import SGN, TransportModel, _jet_rows, stress_tensor_fields, transport

MUTATION_KEYS = (
    "shear",                  # grad(eta pi pi) . shear-rate group
    "momentum_relax",         # lam u u acceleration transport
    "expansion_iso",          # (chi/3) pi theta
    "expansion_uu",           # chi u u theta
    "energy_gradient_mixed",  # (lam/4eps)(u pi + pi u) grad eps
    "energy_gradient_uu",     # (3chi/4eps) u u u grad eps
    "energy_gradient_iso",    # (chi/4eps) pi u grad eps
    "ideal",                  # divergence of the ideal part
)

# the window a measured fourth-order convergence order must fall in: every
# refinement of the divergence oracle (criterion 07) and the
# self-convergence study (criterion 08d)
ORDER_WINDOW = (3.7, 4.3)
# criterion 07's sensitivity test: this coefficient corruption must break
# the convergence (order below MUTATED_ORDER_MAX) and must raise the finest
# discrepancy more than AMPLIFICATION_MIN times
MUTATION = ("expansion_iso", 1.01)
MUTATED_ORDER_MAX = 1.0
AMPLIFICATION_MIN = 100.0
# criterion 07 compares the two sides of the oracle at this time
ORACLE_T0 = 0.37
# criterion 07's resolution ladder, the default of `oracle.resolutions`
ORACLE_RESOLUTIONS = (64, 128, 256, 512)

# the stage kernels' ufuncs, bound once, each passed its out positionally.
# A product with SGN = (-1, 1, 1, 1) is a copy with row 0 times -1.0: the
# same bits at less cost than a broadcast product
_add, _sub, _mul, _div = np.add, np.subtract, np.multiply, np.divide


def _resolution_ladder(resolutions, least: int) -> tuple:
    """The resolutions as ints: at least `least` (two or three) positive
    grids, each double the last, so that successive differences measure an
    order; ValueError otherwise."""
    ladder = tuple(int(n) for n in resolutions)
    if (len(ladder) < least or ladder[0] < 1
            or any(b != 2 * a for a, b in zip(ladder, ladder[1:]))):
        raise ValueError(f"need at least {('two', 'three')[least - 2]} resolutions, "
                         f"positive and each double the last; got {list(ladder)}")
    return ladder


class Scratch:
    """Arrays that repeated evaluations on cells of one shape reuse in place
    of temporaries.

    `take(name, shape)` is the array kept under (name, shape), made on its
    first use: a result written there is valid until the next call that
    takes it.  `temps(*shapes)` carves one array of each shape out of one
    buffer that every call of `temps`, by any function, reuses: a function
    takes all its temporaries in one call, and a result it returns there
    is valid until the next call.  Each array is C-contiguous, as a new one
    would be.  A function with a `work` parameter gives the same bits with
    any Scratch; without one it makes its own, which allocates what it
    takes.
    """

    def __init__(self):
        self._kept = {}
        self._flat = np.empty(0)
        self._views = {}

    def take(self, name: str, shape: tuple) -> np.ndarray:
        key = (name, shape)
        if key not in self._kept:
            self._kept[key] = np.empty(shape)
        return self._kept[key]

    def temps(self, *shapes) -> list:
        views = self._views.get(shapes)
        if views is None:
            sizes = [math.prod(s) for s in shapes]
            if sum(sizes) > self._flat.size:
                self._flat = np.empty(sum(sizes))
                self._views.clear()
            views, at = [], 0
            for shape, size in zip(shapes, sizes):
                views.append(self._flat[at:at + size].reshape(shape))
                at += size
            self._views[shapes] = views
        return views


def _stencil4(a, b, c, d, h: float, out=None, tmp=None):
    """The fourth-order centered first derivative from the values at
    -2h, -h, +h and +2h: (a - 8 b + 8 c - d) / (12 h), summed left to
    right in out, with tmp holding 8 c (each a new array when None)."""
    out = _mul(b, 8.0, out)
    _sub(a, out, out)
    out += _mul(c, 8.0, tmp)
    out -= d
    out /= 12.0 * h
    return out


def dx4(f: np.ndarray, h: float, work: Scratch | None = None) -> np.ndarray:
    """Fourth-order centered first derivative along the last axis, periodic,
    as a new array.

    The periodic neighbours are slices of one copy padded by two cells on
    each side: p[..., j] = f[..., (j - 2) mod n].  The derivative of a
    constant c is exactly 0 only when the running sum c - 8c + 8c - c
    rounds exactly, as for c = 1 or 2.5; at c = 0.7 it is 1.85e-17 / h.
    """
    n = f.shape[-1]
    p, tmp = (Scratch() if work is None else work).temps(f.shape[:-1] + (n + 4,), f.shape)
    p[..., 2:n + 2] = f
    p[..., :2] = f[..., -2:]
    p[..., n + 2:] = f[..., :2]
    return _stencil4(p[..., :n], p[..., 1:n + 1], p[..., 3:n + 3], p[..., 4:], h, tmp=tmp)


class CellFactors(NamedTuple):
    """The per-cell transport factors that `symbol_apply` and
    `time_matrix_solve` share, each formed once (`cell_factors`); every
    field is (N,)."""

    eta: np.ndarray
    lam: np.ndarray
    chi: np.ndarray
    inv4e: np.ndarray        # 1 / (4 eps)
    lam_eta: np.ndarray      # lam - eta
    chi_eta3: np.ndarray     # (chi - eta) / 3
    lam_chi: np.ndarray      # lam + chi
    lam2chi4: np.ndarray     # 2 lam + 4 chi


def cell_factors(eps, coeffs, work: Scratch | None = None) -> CellFactors:
    """The CellFactors of eps (N,) and coeffs = `transport(eps, model)`,
    kept in work under "factors"."""
    eta, lam, chi = coeffs
    inv4e, lam_eta, chi_eta3, lam_chi, lam2chi4, t = (
        Scratch() if work is None else work).take("factors", (6,) + np.shape(eps))
    _div(1.0, _mul(4.0, eps, inv4e), inv4e)
    _sub(lam, eta, lam_eta)
    _div(_sub(chi, eta, chi_eta3), 3.0, chi_eta3)
    _add(lam, chi, lam_chi)
    _add(_mul(2.0, lam, lam2chi4), _mul(4.0, chi, t), lam2chi4)
    return CellFactors(eta, lam, chi, inv4e, lam_eta, chi_eta3, lam_chi, lam2chi4)


@functools.lru_cache(maxsize=8)
def _pair_arrays(pairs: tuple) -> tuple:
    """a, c (P,) and g^{ac} (P, 1) of a tuple of pairs (a, c), made once."""
    a, c = (np.array(i) for i in zip(*pairs))
    return a, c, np.where(a == c, SGN[a], 0.0)[:, None]


def symbol_apply(u, f: CellFactors, pairs, x, work: Scratch | None = None) -> np.ndarray:
    """B(e_a, e_c) x_p for each pair p = (a, c) of `pairs`, without forming
    the blocks: (P, 5, N), among work's temporaries.

    u (4, N), f the CellFactors of the cells' eps, x (P, 5, N).
    B(e_a, e_c) is the symmetrized coefficient of xi_a xi_c in the
    flat-metric symbol m(xi), so m(xi) is the sum of xi_a xi_c B(e_a, e_c)
    over all ordered pairs (a, c).  It is `symbol.symbol_components`'
    formula with xi = e_a and zeta = e_c substituted into the symmetric
    bilinear form whose diagonal is m: xi.xi becomes g^{ac}, (u.xi)^2
    becomes u^a u^c, and xi_n picks column a or c.  Only the velocity
    diagonal, columns a and c, the eps column and the constraint row are
    nonzero.  This is the one formula for the symbol's coefficients; the
    pairs share one pass, and each has the bits it has alone.
    """
    work = Scratch() if work is None else work
    a, c, g_ac = _pair_arrays(tuple(pairs))
    cells, pc = x.shape[2:], (len(a),) + x.shape[2:]
    ua, uc, uac, xa, xc, fe, t1, t2, t3, t4, k, h, tv, out = work.temps(
        *[pc] * 10, cells, cells, (len(a), 4) + cells, x.shape)
    u.take(a, 0, ua, "clip")          # "clip" writes out unbuffered
    u.take(c, 0, uc, "clip")
    _mul(ua, uc, uac)
    for i, (ai, ci) in enumerate(pairs):
        xa[i], xc[i] = x[i, ai], x[i, ci]
    xv, xe = x[:, :4], x[:, 4]
    # row_b xi_n: [(lam + chi) u^b + (chi - eta)/3 u^b] (u.xi) xi_n, with
    # (u.xi) xi_n split evenly between u^a in column c and u^c in column a,
    # and (chi - eta)/3 xi^b xi_n split between entries (a, c) and (c, a)
    _mul(0.5, _add(f.lam_chi, f.chi_eta3, k), k)
    _div(_sub(f.chi, f.eta, h), 6.0, h)
    _mul(_mul(_mul(0.5, f.lam_chi, t1[0]), f.inv4e, t1[0]), xe, fe)
    # ((lam - eta) u^a u^c - eta g^ac) x_v + u [k (u^a x_c + u^c x_a)
    #  + (lam g^ac + (2 lam + 4 chi) u^a u^c) x_e / (4 eps)]
    _sub(_mul(f.lam_eta, uac, t1), _mul(f.eta, g_ac, t2), t1)
    _mul(k, _add(_mul(ua, xc, t2), _mul(uc, xa, t3), t2), t2)
    _add(_mul(f.lam, g_ac, t3), _mul(f.lam2chi4, uac, t4), t3)
    _add(t2, _mul(_mul(t3, f.inv4e, t3), xe, t3), t2)
    for i in range(len(a)):           # per pair: numpy buffers no (P, 4, N) operand
        _mul(t1[i], xv[i], out[i, :4])
        out[i, :4] += _mul(u, t2[i], tv[i])
    # out[a] += SGN[a] (h x_c + f u^c), then out[c] += SGN[c] (h x_a + f u^a);
    # adding -t is subtracting t, bit for bit
    for idx, xo, uo in zip(zip(*pairs), (xc, xa), (uc, ua)):
        _add(_mul(h, xo, t1), _mul(fe, uo, t2), t1)
        for i, row in enumerate(idx):
            (_sub if SGN[row] < 0.0 else _add)(out[i, row], t1[i], out[i, row])
    # SGN . (u x_v) without BLAS: summed from +0 in row order, as SGN @ (u x_v)
    _sub(0.0, _mul(u, xv, tv)[:, 0], t1)
    for row in (1, 2, 3):
        t1 += tv[:, row]
    _mul(uac, t1, out[:, 4])
    return out


class DegenerateTimeMatrix(ValueError):
    """|det a| is at or below the floor, or not finite, at the flagged cells."""

    def __init__(self, message: str, cells: np.ndarray):
        super().__init__(message)
        self.cells = cells


def time_matrix_solve(u, f: CellFactors, r=None, det_floor=None, work: Scratch | None = None):
    """Solve a x = r cellwise for the time-coefficient matrix a = B(e0, e0).

    Returns (x, det), among work's temporaries: x (5, N), or None when r
    is None, and det a (N,).  u and f as `symbol_apply`, r (5, N).
    The matrix is a rank-one update of a diagonal, bordered by one row and
    one column:

        a = [[A, p], [q^T, 0]],   A = D I + c e0^T,

        D = eta + (lam - eta) u0^2,
        c = 2k u0 u - (chi - eta)/3 e0,   2k = lam + chi + (chi - eta)/3,
        p = [lam (2 u0^2 - 1) + 4 chi u0^2] u / (4 eps)
            - (lam + chi) u0 / (4 eps) e0,
        q = SGN u u0^2.

    Sherman-Morrison gives A^{-1} v = (v - c v0 / P) / D with the pivot
    P = D + c0, and the Schur complement of A is the scalar -q.A^{-1}p =
    -S / (D P) with S = P q.p - (q.c) p0.  Hence

        x4 = (P q.r - (q.c) r0 - D P r4) / S,   x_v = A^{-1} (r_v - p x4),
        det a = D^3 P (-q.A^{-1}p) = -D^2 S.

    det is formed before any division.  With det_floor set, a cell with
    |det| <= det_floor (or a non-finite det) raises DegenerateTimeMatrix, a
    ValueError that flags those cells, before any pivot is divided by.
    That guards every pivot: at a1 = 4, P = 2 (lam + 2 eta) u0^2 vanishes
    only with u0, which zeroes q, S and det.
    """
    work = Scratch() if work is None else work
    cells = u.shape[1:]
    u00, d, piv, qc, s, x4, t, det, c, p, q, v, *x = work.temps(
        *[cells] * 8, *[u.shape] * 4, *([] if r is None else [r.shape]))
    u0 = u[0]
    _mul(u0, u0, u00)
    _add(f.eta, _mul(f.lam_eta, u00, d), d)
    _mul(_mul(_add(f.lam_chi, f.chi_eta3, t), u0, t), u, c)
    c[0] -= f.chi_eta3
    _sub(_mul(f.lam2chi4, u00, t), f.lam, t)
    _mul(_mul(t, f.inv4e, t), u, p)
    p[0] -= _mul(_mul(f.lam_chi, u0, t), f.inv4e, t)
    _mul(u, u00, q)                   # q = SGN u u0^2
    q[0] *= -1.0
    _add(d, c[0], piv)
    np.einsum('an,an->n', q, c, out=qc)
    _mul(piv, np.einsum('an,an->n', q, p, out=s), s)
    s -= _mul(qc, p[0], t)
    _mul(np.negative(_mul(d, d, det), det), s, det)
    # two reductions pass det_floor < |det| < inf; any other det, NaN too, fails
    if det_floor is not None and not (det_floor < np.abs(det, t).min() and t.max() < math.inf):
        ok = (np.abs(det) > det_floor) & np.isfinite(det)
        finite = np.isfinite(det)
        why = (f"min |det| = {np.abs(det).min():.6g} <= {det_floor:g}" if finite.all()
               else f"det not finite at {np.count_nonzero(~finite)} cell(s)")
        raise DegenerateTimeMatrix("time-coefficient matrix degenerate: " + why, ~ok)
    if r is None:
        return None, det
    rv = r[:4]
    _mul(piv, np.einsum('an,an->n', q, rv, out=x4), x4)
    x4 -= _mul(qc, rv[0], t)
    x4 -= _mul(_mul(d, piv, t), r[4], t)
    x4 /= s
    _sub(rv, _mul(p, x4, v), v)
    v -= _mul(c, _div(v[0], piv, t), c)
    (x,) = x
    _div(v, d, x[:4])
    x[4] = x4
    return x, det


def assemble_lower_order(u, du, eps, deps, model: TransportModel, coeffs: tuple,
                         mutation: tuple | None = None,
                         work: Scratch | None = None) -> np.ndarray:
    """First-order (non-principal) content of the five equation rows, (5, N),
    kept in work under "rows".

    The first-order jet is `stress_tensor_fields`': u (4, N), eps (N,) and
    the first k derivative rows, du (k, 4, N) with du[a, b] = d_a u^b and
    deps (k, N); the 1+1D solver and the oracle's manufactured field pass
    the (t, x) rows, k = 2.  Rows 0-3 are the raised first-order remainder
    b_low of the divergence equations; row 4 is the constraint row's
    u^a u^m d_a u_l d_m u^l.
    coeffs is `transport(eps, model)`, which the caller has already
    evaluated for the principal part.  `mutation` = (key, factor) scales
    one named term group, for the oracle's sensitivity test only.

    Every term group collapses into one sum,

        b_low = c_u u_dn + c_acc acc_dn + c_deps deps + du_dn @ z + y @ du_dn,

    with c_u, c_acc, c_deps scalar per cell and z, y vectors; a group's
    scale multiplies its share of each.  Every contraction over a
    derivative index runs over the jet's k rows.  Each step below writes
    into an array taken from work, in the order and grouping of the
    formula it comments.
    """
    k = _jet_rows(du, deps)
    key, factor = (None, 1.0) if mutation is None else mutation
    if mutation is not None and key not in MUTATION_KEYS:
        raise KeyError(f"unknown mutation key {key!r}; use one of {MUTATION_KEYS}")
    s_shear, s_relax, s_iso, s_uu, s_en_mixed, s_en_uu, s_en_iso, s_ideal = (
        factor if name == key else 1.0 for name in MUTATION_KEYS)

    eta, lam, chi = coeffs
    a1, a2 = model.a1, model.a2
    work = Scratch() if work is None else work
    cells = eps.shape
    (theta, th23, acc_acc, udeps, acc_deps, du_du, etap, eu, q, dq, a2q, c_u, c_acc, c_deps,
     t1, t2, t3, u_dn, acc, acc_dn, s_u, xu, x, z, du_dn, deps_up, y, tk) = work.temps(
        *[cells] * 17, *[u.shape] * 7, du.shape, *[deps.shape] * 3)
    # every coefficient gradient is a multiple of deps:
    # d eta = etap deps, d lam = a2 etap deps, d chi = a1 etap deps
    model.eta_prime(eps, etap)

    def dot(a, b, out):
        return np.einsum('an,an->n', a, b, out=out)

    u_dn[...] = u
    u_dn[0] *= -1.0
    du_dn[...] = du
    du_dn[:, 0] *= -1.0
    np.einsum('aan->n', du[:, :k], out=theta)
    np.einsum('an,abn->bn', u[:k], du, out=acc)
    acc_dn[...] = acc                                # also u @ du_dn
    acc_dn[0] *= -1.0
    dot(acc, acc_dn, acc_acc)
    dot(u[:k], deps, udeps)
    dot(acc[:k], deps, acc_deps)
    _mul(SGN[:k, None], deps, deps_up)
    np.einsum('amn,man->n', du[:, :k], du[:, :k], out=du_du)  # d_a u^m d_m u^a
    _mul(etap, udeps, eu)                            # d eta . u
    _mul(2.0 / 3.0, theta, th23)

    # shear term: two gradient-square groups plus the product-rule group,
    # the latter with the minus sign fixed by the divergence oracle.  The
    # shear rate S = du_dn + du_dn^T - (2/3) g theta is symmetric, so
    # s_u = S u, and u.(S x) = x.s_u for the vector x it is applied to,
    # x = d_a eta pi^{am} + eta (theta u + acc)^m.  The gradient square
    # d^a u^v d_a u_v enters pi^{am} d_a u_v d_m u^v and pi^{am} S_{mv}
    # d_a u^v with the same coefficient and opposite signs, so it cancels.
    # s_u = acc_dn - (2/3) theta u_dn, and s_u[:k] += du_dn @ u
    _sub(acc_dn, _mul(th23, u_dn, s_u), s_u)
    s_u[:k] += np.einsum('abn,bn->an', du_dn, u, out=tk)
    # xu = (eu + eta theta) u, x = xu + eta acc (kept in z), x[:k] += etap deps_up
    _mul(_add(eu, _mul(eta, theta, t1), t1), u, xu)
    _add(xu, _mul(eta, acc, z), x)
    x[:k] += _mul(etap, deps_up, tk)

    # the three energy-gradient fluxes carry lam/4eps, 3chi/4eps and
    # chi/4eps, i.e. a2 q, 3 a1 q and a1 q, with gradients a2, 3 a1, a1
    # times dq deps; their shares of c_u and c_acc come in one weight
    # q = eta / (4 eps), dq = (etap - eta / eps) / (4 eps)
    _mul(4.0, eps, t3)
    _div(eta, t3, q)
    _div(_sub(etap, _div(eta, eps, dq), dq), t3, dq)
    w_en = 2.0 * a2 * s_en_mixed + a1 * (3.0 * s_en_uu + s_en_iso)
    w_exp = s_iso / 3.0 + s_uu           # (chi/3) pi theta + chi u u theta
    _mul(a2 * s_en_mixed, q, a2q)

    # c_u = s_shear (eta (2 acc_acc - du_du + (4/3) theta^2)
    #                + (2/3) theta eu - (x + eta acc).s_u)
    #       + s_relax (a2 etap acc_deps + lam du_du)
    #       + w_exp theta (a1 eu + chi theta)
    #       + w_en (dq udeps^2 + q (theta udeps + acc_deps))
    #       + a2 s_en_mixed dq deps_up.deps
    #       + (4/3) s_ideal (theta eps + udeps)
    _sub(_mul(2.0, acc_acc, t1), du_du, t1)
    t1 += _mul(4.0 / 3.0, np.square(theta, t2), t2)
    _mul(eta, t1, t1)
    t1 += _mul(th23, eu, t2)
    t1 -= dot(_add(x, z, z), s_u, t2)
    _mul(s_shear, t1, c_u)
    _mul(_mul(a2, etap, t1), acc_deps, t1)
    t1 += _mul(lam, du_du, t2)
    c_u += t1 if s_relax == 1.0 else _mul(s_relax, t1, t1)
    _add(_mul(a1, eu, t2), _mul(chi, theta, t3), t2)
    c_u += _mul(_mul(w_exp, theta, t1), t2, t1)
    _mul(dq, np.square(udeps, t1), t1)
    _add(_mul(theta, udeps, t2), acc_deps, t2)
    t1 += _mul(q, t2, t2)
    c_u += _mul(w_en, t1, t1)
    _mul(a2 * s_en_mixed, dq, t1)
    c_u += _mul(t1, dot(deps_up, deps, t2), t1)
    _add(_mul(theta, eps, t1), udeps, t1)
    c_u += _mul((4.0 / 3.0) * s_ideal, t1, t1)
    # c_acc = s_shear eta ((2/3) theta - u.s_u) + s_relax (a2 eu + lam theta)
    #         + w_exp chi theta + w_en q udeps + (4/3) s_ideal eps
    _sub(th23, dot(u, s_u, t3), t2)
    _mul(eta if s_shear == 1.0 else _mul(s_shear, eta, t1), t2, c_acc)
    _add(_mul(a2, eu, t1), _mul(lam, theta, t2), t1)
    c_acc += t1 if s_relax == 1.0 else _mul(s_relax, t1, t1)
    c_acc += _mul(_mul(w_exp, chi, t1), theta, t1)
    c_acc += _mul(_mul(w_en, q, t1), udeps, t1)
    c_acc += _mul((4.0 / 3.0) * s_ideal, eps, t1)
    # c_deps = ((2/3) s_shear + (a1/3) s_iso) etap theta
    #          + (a2 s_en_mixed + a1 s_en_iso) dq udeps
    #          + a2 s_en_mixed q theta + s_ideal / 3
    _mul(_mul(2.0 / 3.0 * s_shear + a1 / 3.0 * s_iso, etap, c_deps), theta, c_deps)
    c_deps += _mul(_mul(a2 * s_en_mixed + a1 * s_en_iso, dq, t1), udeps, t1)
    c_deps += _mul(a2q, theta, t1)
    c_deps += s_ideal / 3.0
    # z = -s_shear xu, z[:k] += (a1 s_en_iso q - s_shear etap) deps_up
    _mul(-s_shear, xu, z)
    _sub(_mul(a1 * s_en_iso, q, t1), etap if s_shear == 1.0 else _mul(s_shear, etap, t2), t1)
    z[:k] += _mul(t1, deps_up, tk)
    # y = 2 s_relax lam acc[:k] + a2 s_en_mixed q deps_up
    #     - s_shear (x[:k] + eta SGN s_u[:k])
    _mul(_mul(2.0 * s_relax, lam, t1), acc[:k], y)
    y += _mul(a2q, deps_up, tk)
    _add(x[:k], _mul(_mul(eta, SGN[:k, None], tk), s_u[:k], tk), tk)
    y -= tk if s_shear == 1.0 else _mul(s_shear, tk, tk)

    # b_low = c_u u_dn + c_acc acc_dn + y @ du_dn, b_low[:k] += c_deps deps + du_dn @ z
    rows = work.take("rows", (5,) + cells)
    b_low = rows[:4]
    _mul(c_u, u_dn, b_low)
    b_low += _mul(c_acc, acc_dn, xu)
    b_low += np.einsum('an,abn->bn', y, du_dn, out=xu)
    _add(_mul(c_deps, deps, tk), np.einsum('abn,bn->an', du_dn, z, out=y), tk)
    b_low[:k] += tk
    b_low[0] *= -1.0
    rows[4] = acc_acc
    return rows


def equation_rows(u, du, eps, deps, pairs, d2, model: TransportModel, f: CellFactors,
                  mutation=None, work: Scratch | None = None) -> np.ndarray:
    """The five equation rows, principal part + B, (5, N): their one assembly,
    kept in work under "rows".

    (u, du, eps, deps, (f.eta, f.lam, f.chi), mutation) go to
    `assemble_lower_order`; f is the CellFactors of eps.  pairs lists the
    pairs (a, m), a <= m, that the caller carries, and d2 (P, 5, N) their
    second derivatives d_a d_m (u, eps), a mixed pair's doubled: it stands
    for both orders (`principal_terms`).  The principal part sums
    B(e_a, e_m) d2[p] over the pairs in their order and is added to B in
    B's array.  The oracle's field carries tt, tx and xx; the solver leaves
    out tt, its unknown.
    """
    work = Scratch() if work is None else work
    rows = assemble_lower_order(u, du, eps, deps, model, (f.eta, f.lam, f.chi),
                                mutation=mutation, work=work)
    terms = symbol_apply(u, f, pairs, d2, work=work)
    for term in terms[1:]:
        terms[0] += term
    rows += terms[0]
    return rows


def principal_terms(d2: dict) -> tuple:
    """(pairs, d2) of `equation_rows` from a dict mapping each pair (a, m),
    a <= m, to d_a d_m (u, eps) (5, N): a mixed pair's derivative doubled."""
    return tuple(d2), np.stack([x if a == m else 2.0 * x for (a, m), x in d2.items()])


class SinusoidalField:
    """Smooth periodic manufactured fields with analytic derivatives.

    eps = EPS0 + EPS_AMP sin(k_eps x + EPS_SPEED t), and spatial velocity
    component i is U_AMPS[i] sin(k_i x + U_SPEEDS[i] t + U_PHASES[i]), with
    k_eps and k_i = 2 pi EPS_WAVES and 2 pi U_WAVES[i] over the period
    `length`.  The time component is lifted pointwise to sqrt(1 + |w|^2),
    so u.u = -1 holds identically and all its derivatives vanish
    analytically.  That normalization is a domain requirement of the
    assembled equations, not a convenience: the first-order remainder was
    derived using d(u.u) = 0.  The fields vary in t and x only, so every
    jet carries the (t, x) derivative rows, k = 2.
    """

    EPS0, EPS_AMP, EPS_WAVES, EPS_SPEED = 1.0, 0.1, 1, -1.0
    U_AMPS = np.array([0.3, 0.15, 0.1])
    U_WAVES = np.array([1.0, 2.0, 1.0])
    U_SPEEDS = np.array([0.7, -0.4, 0.9])
    U_PHASES = np.array([0.3, 1.1, 2.0])

    def __init__(self, length: float):
        self.length = length
        ke = 2.0 * np.pi / length
        self.keps = self.EPS_WAVES * ke
        self.k = self.U_WAVES * ke

    def eps_jet(self, t: float, x: np.ndarray, order: int = 2):
        """(eps, deps) for order 1, (eps, deps, d2eps) for order 2, with
        deps (2, ...) and d2eps (2, 2, ...)."""
        w, k = self.EPS_SPEED, self.keps
        arg = k * x + w * t
        s, c = np.sin(arg), np.cos(arg)
        eps = self.EPS0 + self.EPS_AMP * s
        deps = np.stack([self.EPS_AMP * c * w, self.EPS_AMP * c * k])
        if order == 1:
            return eps, deps
        a = -self.EPS_AMP * s
        tx = a * w * k
        return eps, deps, np.stack([np.stack([a * w ** 2, tx]), np.stack([tx, a * k ** 2])])

    def u_jet(self, t: float, x: np.ndarray, order: int = 2):
        """(u, du) for order 1, (u, du, d2u) for order 2, with du (2, 4, ...)
        and d2u (2, 2, 4, ...)."""
        shp = x.shape
        # the three components at once, each parameter broadcast over x
        k, w, ph, amp = (a.reshape((3,) + (1,) * x.ndim)
                         for a in (self.k, self.U_SPEEDS, self.U_PHASES, self.U_AMPS))
        arg = k * x + w * t + ph
        c = np.cos(arg)
        ui = amp * np.sin(arg)
        dui = np.stack([amp * c * w, amp * c * k])
        ssum = np.einsum('i...,i...->...', ui, ui)
        dssum = 2.0 * np.einsum('i...,ai...->a...', ui, dui)
        u0 = np.sqrt(1.0 + ssum)
        du0 = dssum / (2.0 * u0)
        u = np.concatenate([u0[None], ui], axis=0)
        du = np.concatenate([du0[:, None], dui], axis=1)
        if order == 1:
            return u, du
        # -amp s is -u^i, exactly: negation does not round
        d2ui = np.empty((2, 2, 3) + shp)
        for i in range(3):
            d2ui[0, 0, i] = -ui[i] * self.U_SPEEDS[i] ** 2
            d2ui[0, 1, i] = d2ui[1, 0, i] = -ui[i] * self.U_SPEEDS[i] * self.k[i]
            d2ui[1, 1, i] = -ui[i] * self.k[i] ** 2
        d2ssum = 2.0 * (np.einsum('ai...,mi...->am...', dui, dui)
                        + np.einsum('i...,ami...->am...', ui, d2ui))
        d2u0 = d2ssum / (2.0 * u0) - dssum[:, None] * dssum[None, :] / (4.0 * u0 ** 3)
        d2u = np.concatenate([d2u0[:, :, None], d2ui], axis=2)
        return u, du, d2u

    def jet2(self, t: float, x: np.ndarray):
        """The second-order (t, x) jet (u, du, eps, deps, d2): k = 2, and
        d2 maps the pairs tt, tx and xx to d_a d_m (u, eps), (5, ...);
        `principal_terms(d2)` gives `equation_rows` its pairs."""
        u, du, d2u = self.u_jet(t, x)
        eps, deps, d2eps = self.eps_jet(t, x)
        d2 = {(a, m): np.concatenate([d2u[a, m], d2eps[a, m][None]])
              for a, m in ((0, 0), (0, 1), (1, 1))}
        return u, du, eps, deps, d2


@dataclass(frozen=True)
class DivergenceReport:
    resolution: int
    spacing: float
    max_discrepancy: float     # assembled rows 0-3 vs finite-difference divergence
    constraint_row_max: float  # assembled row 4; identically zero for normalized fields


def _fd_divergence(fields: SinusoidalField, resolution: int, model: TransportModel,
                   t0: float):
    """The finite-difference side of the oracle: (x, h, div) at t0.

    div (4, N) is d_a T^a_beta, beta low, from the constitutive stress on a
    five-level time stencil, differentiated with 4th-order centered
    differences (periodic in x).  The stencils read one row per level,
    T^0_beta at t0 +- h and t0 +- 2h and T^1_beta at t0, and each level
    builds only that row, from the field's first-order (t, x) jet.  The four row-0 levels
    are batched, (levels, N) with x broadcast to the level grid, so that
    the stress's (4, 4, points) temporaries hold at most BATCH_VALUES
    values: one batch up to N = 128.  Larger batches ran no faster at
    N = 256 and 512, and a process kept up to 1 MB more memory resident
    after them.  Every field value is elementwise in (t, x), and a stress
    row has the bits it has on any batch of two or more points.
    """
    n = int(resolution)
    h = fields.length / n
    x = np.arange(n) * h

    def row(t, xs, r: int) -> np.ndarray:
        u, du = fields.u_jet(t, xs, order=1)
        eps, deps = fields.eps_jet(t, xs, order=1)
        return SGN[r] * stress_tensor_fields(u, du, eps, deps, model, rows=(r,))[0]

    t = t0 + np.array([-2.0, -1.0, 1.0, 2.0])[:, None] * h
    per = max(1, BATCH_VALUES // (16 * n))
    # T^0_beta, beta low, as (beta, level, N)
    t0_b = np.concatenate([row(ts, np.broadcast_to(x, (len(ts), n)), 0)
                           for ts in np.split(t, range(per, 4, per))], axis=1)
    return x, h, _stencil4(*t0_b.swapaxes(0, 1), h) + dx4(row(t0, x, 1), h)


def _assembled_report(fields: SinusoidalField, fd: tuple, model: TransportModel,
                      t0: float, mutation=None) -> DivergenceReport:
    """The assembled side of the oracle, at the exact analytic jet, against
    the finite-difference divergence fd = (x, h, div) of `_fd_divergence`."""
    x, h, div = fd
    u, du, eps, deps, d2 = fields.jet2(t0, x)
    rows = equation_rows(u, du, eps, deps, *principal_terms(d2), model,
                         cell_factors(eps, transport(eps, model)), mutation=mutation)
    assembled_low = SGN[:, None] * rows[:4]
    return DivergenceReport(
        resolution=len(x),
        spacing=h,
        max_discrepancy=float(np.abs(assembled_low - div).max()),
        constraint_row_max=float(np.abs(rows[4]).max()),
    )


def divergence_residual(fields: SinusoidalField, resolution: int,
                        model: TransportModel, t0: float = ORACLE_T0,
                        mutation=None) -> DivergenceReport:
    """Max discrepancy between assembled equations and the FD stress divergence.

    The finite-difference side is `_fd_divergence`; the assembled side uses
    the exact analytic jet.  The discrepancy is pure stencil error and must
    shrink at 4th order; a corrupted coefficient (via `mutation`) breaks
    that.
    """
    return _assembled_report(fields, _fd_divergence(fields, resolution, model, t0),
                             model, t0, mutation=mutation)


def _order(coarse: DivergenceReport, fine: DivergenceReport) -> float:
    return float(np.log2(coarse.max_discrepancy / fine.max_discrepancy))


@dataclass(frozen=True)
class OracleReport:
    """Criterion 07: one DivergenceReport per resolution (clean) and, under
    MUTATION, the two finest (mutated), with the criterion's verdict."""

    model: TransportModel
    clean: tuple
    mutated: tuple

    @property
    def orders(self) -> list:
        return [_order(a, b) for a, b in zip(self.clean, self.clean[1:])]

    @property
    def mutated_order(self) -> float:
        return _order(*self.mutated)

    @property
    def amplification(self) -> float:
        return self.mutated[-1].max_discrepancy / self.clean[-1].max_discrepancy

    @property
    def passed(self) -> bool:
        lo, hi = ORDER_WINDOW
        return bool(all(lo <= o <= hi for o in self.orders)
                    and self.mutated_order < MUTATED_ORDER_MAX
                    and self.mutated[-1].max_discrepancy
                    > AMPLIFICATION_MIN * self.clean[-1].max_discrepancy)

    def to_json(self) -> dict:
        return {
            "check": "divergence-oracle",
            "parameters": {"a1": self.model.a1, "a2": self.model.a2, "t0": ORACLE_T0},
            "seed": None,
            "tolerances": {"order": list(ORDER_WINDOW),
                           "mutated_order_max": MUTATED_ORDER_MAX,
                           "mutation_amplification_min": AMPLIFICATION_MIN},
            "resolutions": [r.resolution for r in self.clean],
            "discrepancies": [r.max_discrepancy for r in self.clean],
            "orders": self.orders,
            "mutated_discrepancy": self.mutated[-1].max_discrepancy,
            "mutated_order": self.mutated_order,
            "passed": self.passed,
        }


def divergence_oracle(fields: SinusoidalField, model: TransportModel,
                      resolutions) -> OracleReport:
    """Criterion 07 at these resolutions, at t = ORACLE_T0: at least two,
    positive, each double the last, or the orders measure nothing
    (ValueError)."""
    resolutions = _resolution_ladder(resolutions, 2)
    # the mutation touches only the assembled side: the mutated reports
    # reuse the clean finite-difference divergences
    fds = [_fd_divergence(fields, n, model, ORACLE_T0) for n in resolutions]
    clean = tuple(_assembled_report(fields, fd, model, ORACLE_T0) for fd in fds)
    mutated = tuple(_assembled_report(fields, fd, model, ORACLE_T0, mutation=MUTATION)
                    for fd in fds[-2:])
    return OracleReport(model=model, clean=clean, mutated=mutated)
