"""Single-state references for the tests: one state point at a time.

The package computes every state function on arrays of K states.  These
wrappers evaluate one state, and tests compare the batched functions
against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from vecf import equations
from vecf.characteristics import cone_roots_batch, factor_base_values, factor_values
from vecf.constitutive import SGN, TransportModel, transport
from vecf.constitutive import _jet_rows
from vecf.equations import MUTATION_KEYS, DegenerateTimeMatrix
from vecf.solver1d import (_QUIET, DET_FLOOR, FieldGrid, SolverConfig, _check_initial,
                           _eps_lost, _members, make_grid)
from vecf.symbol import (check_time_matrix_domain, det_by_elimination,
                         det_time_matrix_closed_form, symbol_components,
                         symbol_contractions)
from vecf.tensor import Metric4, minkowski, near_minkowski_components


@dataclass(frozen=True)
class StatePoint:
    """Frozen-coefficient state for symbol and characteristic evaluations."""

    eps: float
    u: np.ndarray
    g: Metric4
    transport: TransportModel

    def __post_init__(self):
        if self.eps <= 0.0:
            raise ValueError("energy density must be positive")
        u = np.asarray(self.u, dtype=float).reshape(4)
        u.setflags(write=False)
        object.__setattr__(self, "u", u)

    @classmethod
    def rest(cls, eps: float = 1.0, a2: float = 4.0, a1: float = 4.0,
             eta0: float = 1.0, g: Metric4 | None = None) -> "StatePoint":
        model = TransportModel(a1=a1, a2=a2, eta0=eta0)
        return cls(eps=eps, u=np.array([1.0, 0.0, 0.0, 0.0]),
                   g=g if g is not None else minkowski(), transport=model)

    def boosted(self, spatial_u) -> "StatePoint":
        """Same parameters with u = (sqrt(1+|w|^2), w); normalized for flat g."""
        w = np.asarray(spatial_u, dtype=float).reshape(3)
        u = np.array([np.sqrt(1.0 + w @ w), *w])
        return StatePoint(eps=self.eps, u=u, g=self.g, transport=self.transport)

    def coefficients(self):
        return transport(self.eps, self.transport)


def _as_covector(xi) -> np.ndarray:
    return np.asarray(xi, dtype=float).reshape(4)


def fluid_symbol(s: StatePoint, xi) -> np.ndarray:
    """5x5 principal symbol m(U, xi) at a state point."""
    xi = _as_covector(xi)
    eta, lam, chi = s.coefficients()
    return symbol_components(s.u, s.eps, eta, lam, chi, s.g.components, s.g.inverse, xi)


def fluid_char_det(s: StatePoint, xi) -> float:
    """det m(U, xi), the brute-force side of the factorization identity:
    the elimination of the stack of one symbol."""
    return float(det_by_elimination(fluid_symbol(s, xi)[None])[0])


def coupled_char_det(s: StatePoint, xi) -> float:
    """Determinant of the full 15x15 gravity-coupled symbol.

    The coupled matrix is block triangular: the metric block is
    (xi.xi) times the 10x10 identity and the coupling block never enters
    the determinant, so it is det m(U, xi) * (xi.xi)^10 without
    materializing the big matrix.
    """
    xi = _as_covector(xi)
    xixi = float(xi @ s.g.inverse @ xi)
    return fluid_char_det(s, xi) * xixi ** 10


def time_matrix(s: StatePoint) -> np.ndarray:
    """Coefficient matrix of the second time derivatives: the symbol at e0."""
    return fluid_symbol(s, np.array([1.0, 0.0, 0.0, 0.0]))


def det_time_matrix_formula(s: StatePoint) -> float:
    """`det_time_matrix_closed_form` at a state point, inside its domain.

    Raises ValueError off the domain: a curved metric, unnormalized u or
    a1 != 4 (`check_time_matrix_domain`).
    """
    check_time_matrix_domain(s.g, s.u[None], s.transport.a1)
    eta, _, _ = s.coefficients()
    w2 = float(s.u[1] ** 2 + s.u[2] ** 2 + s.u[3] ** 2)
    return float(det_time_matrix_closed_form(eta, s.eps, w2, s.transport.a2))


def eval_factor_base(family: str, s: StatePoint, xi):
    """The underlying hyperbolic polynomial of a family at (state, covector).

    xi is one covector (4,), giving a float, or a batch (4, K), giving K
    values.  One covector is the batch K = 1: `**` on a numpy scalar can
    differ in its last bit from `**` on an array, so a batched value has
    the bits of the single-covector one only because both are arrays.
    """
    xi = np.asarray(xi, dtype=float)
    single = xi.ndim != 2
    if single:
        xi = _as_covector(xi)[:, None]
    elif xi.shape[0] != 4:
        raise ValueError(f"covector batch must have shape (4, K), got {xi.shape}")
    _, _, uxi, xixi, uu = symbol_contractions(s.u, xi.T, s.g.components, s.g.inverse)
    base = factor_base_values(family, uxi, xixi, uu, s.transport.a2)
    return float(base[0]) if single else base


def eval_factor(family: str, s: StatePoint, xi) -> float:
    """The factor as it appears in the characteristic determinant."""
    base = eval_factor_base(family, s, xi)
    eta, _, _ = s.coefficients()
    return factor_values(family, base, float(eta), s.eps)


@dataclass(frozen=True)
class RootPair:
    """Real xi0 roots of a cone at fixed spatial direction.

    plus and minus take +sqrt R and -sqrt R in `cone_xi0`, and
    discriminant is R; the flow cone's two roots coincide.
    """

    plus: float
    minus: float
    discriminant: float


def cone_roots(family: str, xibar, u, a2: float) -> RootPair:
    """Closed-form xi0 roots of a family's cone (Minkowski, normalized u)."""
    xibar = np.asarray(xibar, dtype=float).reshape(1, 3)
    if not np.any(xibar != 0.0):
        raise ValueError("spatial covector must be nonzero")
    minus, plus, radicand = cone_roots_batch(family, xibar,
                                             np.asarray(u, dtype=float).reshape(1, 4), a2)
    return RootPair(plus=float(plus[0]), minus=float(minus[0]),
                    discriminant=float(radicand[0]))


def random_lorentzian_near_minkowski(delta: float, seed: int) -> Metric4:
    """The validated metric of `near_minkowski_components` on 17 uniforms
    drawn by default_rng(seed)."""
    uniforms = np.random.default_rng(seed).random((1, 17))
    return Metric4.from_components(near_minkowski_components(delta, uniforms)[0])


def symbol_block(u, f, a: int, c: int) -> np.ndarray:
    """B(e_a, e_c) as a (5, 5, N) block, column j = `equations.symbol_apply`
    of e_j, f the cells' CellFactors: the block view of the symbol, for
    checks against the full symbol and a dense solve."""
    e = np.zeros((5, 5) + f.eta.shape)
    e[np.arange(5), np.arange(5)] = 1.0
    return equations.symbol_apply(u, f, [(a, c)] * 5, e).swapaxes(0, 1)


def state_arrays(states):
    """(u (K, 4), a2 (K,), g (K, 4, 4)) of K StatePoints: the state
    arguments of `bisection_roots`, in its order."""
    return (np.array([s.u for s in states]),
            np.array([s.transport.a2 for s in states]),
            np.array([s.g.components for s in states]))


# The RK4 step as the package took it before it kept a workspace and shared
# the per-cell factors: `_rhs`, `step` and `_fixed_point` with the stencil,
# the one-pair symbol, the time-matrix solve, the lower-order terms and the
# row assembly they called, each formed from fresh temporaries.  The
# solver's steps must keep these bits exactly (tests/test_rk4_stage.py).

def _stencil4(a, b, c, d, h: float):
    """The fourth-order centered first derivative from the values at
    -2h, -h, +h and +2h: (a - 8 b + 8 c - d) / (12 h)."""
    return (a - 8.0 * b + 8.0 * c - d) / (12.0 * h)


def dx4(f: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order centered first derivative along the last axis, periodic."""
    n = f.shape[-1]
    p = np.concatenate([f[..., -2:], f, f[..., :2]], axis=-1)
    return _stencil4(p[..., :n], p[..., 1:n + 1], p[..., 3:n + 3], p[..., 4:], h)


def symbol_apply(u, eps, eta, lam, chi, a: int, c: int, x) -> np.ndarray:
    """B(e_a, e_c) x for one pair (a, c), x (5, N): (5, N)."""
    g_ac = SGN[a] if a == c else 0.0
    uac = u[a] * u[c]
    xv, xe = x[:4], x[4]
    inv4e = 1.0 / (4.0 * eps)
    # row_b xi_n: [(lam + chi) u^b + (chi - eta)/3 u^b] (u.xi) xi_n, with
    # (u.xi) xi_n split evenly between u^a in column c and u^c in column a,
    # and (chi - eta)/3 xi^b xi_n split between entries (a, c) and (c, a)
    k = 0.5 * ((lam + chi) + (chi - eta) / 3.0)
    h = (chi - eta) / 6.0
    f = 0.5 * (lam + chi) * inv4e * xe
    out = np.empty(x.shape)
    out[:4] = ((lam - eta) * uac - eta * g_ac) * xv + u * (
        k * (u[a] * x[c] + u[c] * x[a])
        + (lam * g_ac + (2.0 * lam + 4.0 * chi) * uac) * inv4e * xe)
    out[a] += SGN[a] * (h * x[c] + f * u[c])
    out[c] += SGN[c] * (h * x[a] + f * u[a])
    out[4] = uac * (SGN @ (u * xv))
    return out


def time_matrix_solve(u, eps, eta, lam, chi, r=None, det_floor=None):
    """(x, det) of a x = r, a = B(e0, e0), with eta, lam and chi."""
    u0 = u[0]
    u00 = u0 * u0
    inv4e = 1.0 / (4.0 * eps)
    d = eta + (lam - eta) * u00
    c = (lam + chi + (chi - eta) / 3.0) * u0 * u
    c[0] -= (chi - eta) / 3.0
    p = ((2.0 * lam + 4.0 * chi) * u00 - lam) * inv4e * u
    p[0] -= (lam + chi) * u0 * inv4e
    q = SGN[:, None] * u * u00
    piv = d + c[0]
    qc = np.einsum('an,an->n', q, c)
    s = piv * np.einsum('an,an->n', q, p) - qc * p[0]
    det = -(d * d) * s
    ok = det_floor is None or (np.abs(det) > det_floor) & np.isfinite(det)
    if not np.all(ok):
        finite = np.isfinite(det)
        why = (f"min |det| = {np.abs(det).min():.6g} <= {det_floor:g}" if finite.all()
               else f"det not finite at {np.count_nonzero(~finite)} cell(s)")
        raise DegenerateTimeMatrix("time-coefficient matrix degenerate: " + why, ~ok)
    if r is None:
        return None, det
    rv = r[:4]
    x4 = (piv * np.einsum('an,an->n', q, rv) - qc * rv[0] - d * piv * r[4]) / s
    v = rv - p * x4
    v -= c * (v[0] / piv)
    x = np.empty(r.shape)
    x[:4] = v / d
    x[4] = x4
    return x, det


def assemble_lower_order(u, du, eps, deps, model: TransportModel, coeffs: tuple,
                         mutation: tuple | None = None) -> np.ndarray:
    """First-order content of the five equation rows, (5, N), from fresh temporaries."""
    k = _jet_rows(du, deps)
    key, factor = (None, 1.0) if mutation is None else mutation
    if mutation is not None and key not in MUTATION_KEYS:
        raise KeyError(f"unknown mutation key {key!r}; use one of {MUTATION_KEYS}")
    s_shear, s_relax, s_iso, s_uu, s_en_mixed, s_en_uu, s_en_iso, s_ideal = (
        factor if name == key else 1.0 for name in MUTATION_KEYS)

    eta, lam, chi = coeffs
    # every coefficient gradient is a multiple of deps:
    # d eta = etap deps, d lam = a2 etap deps, d chi = a1 etap deps
    etap = model.eta_prime(eps)
    a1, a2 = model.a1, model.a2

    def dot(x, y):
        return np.einsum('an,an->n', x, y)

    u_dn = SGN[:, None] * u
    du_dn = du * SGN[:, None]
    theta = np.einsum('aan->n', du[:, :k])
    acc = np.einsum('an,abn->bn', u[:k], du)
    acc_dn = SGN[:, None] * acc          # also u @ du_dn
    acc_acc = dot(acc, acc_dn)
    udeps = dot(u[:k], deps)
    acc_deps = dot(acc[:k], deps)
    deps_up = SGN[:k, None] * deps
    du_du = np.einsum('amn,man->n', du[:, :k], du[:, :k])  # d_a u^m d_m u^a
    eu = etap * udeps                    # d eta . u

    # shear term: two gradient-square groups plus the product-rule group,
    # the latter with the minus sign fixed by the divergence oracle.  The
    # shear rate S = du_dn + du_dn^T - (2/3) g theta is symmetric, so
    # s_u = S u, and u.(S x) = x.s_u for the vector x it is applied to,
    # x = d_a eta pi^{am} + eta (theta u + acc)^m.  The gradient square
    # d^a u^v d_a u_v enters pi^{am} d_a u_v d_m u^v and pi^{am} S_{mv}
    # d_a u^v with the same coefficient and opposite signs, so it cancels.
    s_u = acc_dn - (2.0 / 3.0) * theta * u_dn
    s_u[:k] += np.einsum('abn,bn->an', du_dn, u)
    xu = (eu + eta * theta) * u
    x = xu + eta * acc
    x[:k] += etap * deps_up

    # the three energy-gradient fluxes carry lam/4eps, 3chi/4eps and
    # chi/4eps, i.e. a2 q, 3 a1 q and a1 q, with gradients a2, 3 a1, a1
    # times dq deps; their shares of c_u and c_acc come in one weight
    q = eta / (4.0 * eps)
    dq = (etap - eta / eps) / (4.0 * eps)
    w_en = 2.0 * a2 * s_en_mixed + a1 * (3.0 * s_en_uu + s_en_iso)
    w_exp = s_iso / 3.0 + s_uu           # (chi/3) pi theta + chi u u theta

    c_u = (s_shear * (eta * (2.0 * acc_acc - du_du + (4.0 / 3.0) * theta ** 2)
                      + (2.0 / 3.0) * theta * eu - dot(x + eta * acc, s_u))
           + s_relax * (a2 * etap * acc_deps + lam * du_du)
           + w_exp * theta * (a1 * eu + chi * theta)
           + w_en * (dq * udeps ** 2 + q * (theta * udeps + acc_deps))
           + a2 * s_en_mixed * dq * dot(deps_up, deps)
           + (4.0 / 3.0) * s_ideal * (theta * eps + udeps))
    c_acc = (s_shear * eta * ((2.0 / 3.0) * theta - dot(u, s_u))
             + s_relax * (a2 * eu + lam * theta)
             + w_exp * chi * theta
             + w_en * q * udeps
             + (4.0 / 3.0) * s_ideal * eps)
    c_deps = ((2.0 / 3.0 * s_shear + a1 / 3.0 * s_iso) * etap * theta
              + (a2 * s_en_mixed + a1 * s_en_iso) * dq * udeps
              + a2 * s_en_mixed * q * theta
              + s_ideal / 3.0)
    z = -s_shear * xu
    z[:k] += (a1 * s_en_iso * q - s_shear * etap) * deps_up
    y = (2.0 * s_relax * lam * acc[:k] + a2 * s_en_mixed * q * deps_up
         - s_shear * (x[:k] + eta * SGN[:k, None] * s_u[:k]))

    b_low = c_u * u_dn + c_acc * acc_dn + np.einsum('an,abn->bn', y, du_dn)
    b_low[:k] += c_deps * deps + np.einsum('abn,bn->an', du_dn, z)
    return np.concatenate([SGN[:, None] * b_low, acc_acc[None, :]], axis=0)


def equation_rows(u, du, eps, deps, d2: dict, model: TransportModel, coeffs: tuple,
                  mutation=None) -> np.ndarray:
    """The five equation rows, d2 a dict of the pairs' second derivatives."""
    rows = assemble_lower_order(u, du, eps, deps, model, coeffs, mutation=mutation)
    rows += reduce(np.add, (symbol_apply(u, eps, *coeffs, a, m, x if a == m else 2.0 * x)
                            for (a, m), x in d2.items()))
    return rows


def _rhs(V: np.ndarray, W: np.ndarray, h: float, model: TransportModel):
    """dt (V, W) of one run (5, N) or of an ensemble (5, B, N).

    The stencils act on the cell axis; every pointwise layer gets the cells
    of all members as one flat (5, B N) batch, so each cell's arithmetic is
    the same as in a run of its member alone.
    """
    bad = _eps_lost(V)
    if bad.any():
        raise ValueError("energy density lost positivity inside a stage"
                         + _members(bad))
    d = dx4(np.concatenate([V, W]), h)
    dxV, dxW = d[:5], d[5:]
    dxxV = dx4(dxV, h)
    v, w, dxv, dxw, dxxv = (f.reshape(5, -1) for f in (V, W, dxV, dxW, dxxV))
    u, eps = v[:4], v[4]
    jet = np.stack([w, dxv])             # the (t, x) rows of d_a (u, eps)
    coeffs = transport(eps, model)
    # rows, in B's array, stays alive through the solve: freed before it, the
    # heap was trimmed and regrown around the solve's temporaries, and an
    # N = 4096 run took three times the minor page faults
    rows = equation_rows(u, jet[:, :4], eps, jet[:, 4], {(0, 1): dxw, (1, 1): dxxv},
                         model, coeffs)
    return W, _solve_time_matrix(u, eps, coeffs, -rows, V.shape[-1]).reshape(V.shape)


def _solve_time_matrix(u, eps, coeffs, rhs, n_cells: int):
    """`time_matrix_solve` with the DET_FLOOR guard, on the flat cells of
    members of n_cells cells each; a degenerate cell raises ValueError
    naming the members it lies in."""
    try:
        return time_matrix_solve(u, eps, *coeffs, rhs, det_floor=DET_FLOOR)[0]
    except DegenerateTimeMatrix as exc:
        bad = exc.cells.reshape(-1, n_cells).any(axis=1)
        raise ValueError(str(exc) + _members(bad)) from None


def step(grid: FieldGrid, cfg: SolverConfig, dt: float) -> FieldGrid:
    """One classical RK4 step.

    Every stage asserts |det a| > DET_FLOOR at every cell before it divides
    by a pivot of a, and raises ValueError otherwise; in the admissible
    regime the closed-form value keeps the determinant far above the floor.
    The step runs under _QUIET.
    """
    h = grid.spacing
    model = cfg.transport
    V, W = grid.V, grid.W
    with np.errstate(**_QUIET):
        k1v, k1w = _rhs(V, W, h, model)
        k2v, k2w = _rhs(V + 0.5 * dt * k1v, W + 0.5 * dt * k1w, h, model)
        k3v, k3w = _rhs(V + 0.5 * dt * k2v, W + 0.5 * dt * k2w, h, model)
        k4v, k4w = _rhs(V + dt * k3v, W + dt * k3w, h, model)
        Vn = V + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        Wn = W + dt / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
    return FieldGrid(n_cells=grid.n_cells, length=grid.length, V=Vn, W=Wn,
                     t=grid.t + dt)


def _fixed_point(cfg: SolverConfig) -> np.ndarray | None:
    """cfg's V at t = 0 if it is an exact fixed point of `step`, else None.

    It is one when W and _rhs's dt W are zero at every cell: every RK4
    stage's input is then the state itself, so each step returns V bit for
    bit, up to the sign of a zero, and W stays zero.  A grid that make_grid,
    _check_initial or _rhs rejects is not one; the check runs first, so
    _rhs never meets a det that overflows.
    """
    try:
        grid = make_grid(cfg)
        _check_initial(grid, cfg.transport)
        with np.errstate(**_QUIET):
            _, dtW = _rhs(grid.V, grid.W, grid.spacing, cfg.transport)
    except ValueError:
        return None
    return None if grid.W.any() or dtW.any() else grid.V
