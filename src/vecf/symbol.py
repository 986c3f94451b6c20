"""The 5x5 fluid principal symbol, its determinant, and the time-coefficient matrix.

Row/column order is (u^0, u^1, u^2, u^3, eps).  Rows 0-3 carry the
second-order coefficients of the four momentum-balance equations with each
d^2_{alpha mu} replaced by xi_alpha xi_mu; row 4 is the normalization
constraint row u_nu (u.xi)^2.  Every entry is homogeneous of degree 2 in xi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constitutive import TransportModel, transport
from .tensor import Metric4, minkowski


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
             eta0: float = 1.0, eta_form: str = "constant",
             g: Metric4 | None = None) -> "StatePoint":
        model = TransportModel(a1=a1, a2=a2, eta_form=eta_form, eta0=eta0)
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


def _dot(a, b):
    """Sum over the last axis (length 4) of a * b, term by term in index order.

    Spelled out rather than left to einsum or BLAS, whose summation order
    can depend on the batch shape: a contraction of one state has the same
    bits alone as in a stack.
    """
    return (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
            + a[..., 2] * b[..., 2] + a[..., 3] * b[..., 3])


def symbol_contractions(u, xi, g, ginv):
    """(xi^a, u_a, u.xi, xi.xi, u.u) for u (..., 4), xi (..., 4), g and ginv (..., 4, 4).

    Leading axes broadcast; every contraction is a `_dot`.
    """
    xiup = _dot(ginv, xi[..., None, :])
    u_dn = _dot(g, u[..., None, :])
    return xiup, u_dn, _dot(u, xi), _dot(xi, xiup), _dot(u, u_dn)


def symbol_components(u, eps, eta, lam, chi, g, ginv, xi) -> np.ndarray:
    """Assemble the symbol for batched states; plain-array core.

    u (..., 4), eps/eta/lam/chi (...), g and ginv (..., 4, 4), xi (..., 4);
    leading axes broadcast, so one metric or covector may serve a whole
    batch.  Returns (..., 5, 5).  For row b <= 3 and column n <= 3 the
    entry is

        delta_bn * [-eta xi.xi + (lam - eta)(u.xi)^2]
        + [(lam + chi) u^b (u.xi) + (chi - eta)/3 (xi^b + u^b (u.xi))] xi_n

    which reproduces the divergence-equation coefficients of d^2 u^n; the
    first bracket collects the wave-operator part, the second the
    gradient-of-divergence part (no-sum diagonal convention included).
    A state's symbol has the same bits whatever batch it is assembled in.
    """
    u = np.asarray(u, dtype=float)
    xi = np.asarray(xi, dtype=float)
    # scalars gain a trailing axis, to broadcast against the index axis
    eps, eta, lam, chi = (np.asarray(v, dtype=float)[..., None]
                          for v in (eps, eta, lam, chi))
    xiup, u_dn, uxi, xixi, _ = symbol_contractions(u, xi, g, ginv)
    uxi, xixi = uxi[..., None], xixi[..., None]
    uxi2 = uxi ** 2

    Q = -eta * xixi + (lam - eta) * uxi2
    row_c = (lam + chi) * u * uxi + (chi - eta) / 3.0 * (xiup + u * uxi)
    energy = (u * (lam * xixi + (lam + 3.0 * chi) * uxi2)
              + (lam + chi) * (uxi * xiup + u * uxi2)) / (4.0 * eps)
    constraint = u_dn * uxi2
    shape = np.broadcast_shapes(row_c.shape, energy.shape, constraint.shape)[:-1]
    m = np.zeros(shape + (5, 5))
    m[..., :4, :4] = row_c[..., :, None] * xi[..., None, :]
    diag = np.arange(4)
    m[..., diag, diag] += Q
    m[..., :4, 4] = energy
    m[..., 4, :4] = constraint
    return m


def fluid_symbol(s: StatePoint, xi) -> np.ndarray:
    """5x5 principal symbol m(U, xi) at a state point."""
    xi = _as_covector(xi)
    eta, lam, chi = s.coefficients()
    return symbol_components(s.u, s.eps, eta, lam, chi, s.g.components, s.g.inverse, xi)


def det_by_elimination(m: np.ndarray):
    """Determinant by partial-pivoted Gaussian elimination.

    m is one (n, n) matrix, giving a float, or a stack (K, n, n), giving
    K determinants.  Pivot choice is the largest magnitude with the lowest
    index on ties, which makes the result deterministic for identical
    inputs; every matrix of a stack goes through exactly the operations it
    would alone, so a stacked result equals the single-matrix one bitwise.
    A zero pivot gives 0 for its matrix only.
    """
    a = np.array(m, dtype=float)
    single = a.ndim == 2
    if single:
        a = a[None]
    k, n, _ = a.shape
    ks = np.arange(k)
    det = np.ones(k)
    for col in range(n):
        piv = col + np.abs(a[:, col:, col]).argmax(axis=1)
        top = a[:, col].copy()
        a[:, col] = a[ks, piv]
        a[ks, piv] = top
        np.negative(det, out=det, where=piv != col)
        pivot = a[:, col, col]
        det *= pivot
        # a zero pivot means a zero column below it: dividing by 1 instead
        # keeps that matrix finite, and its determinant is zeroed below
        factor = a[:, col + 1:, col] / np.where(pivot == 0.0, 1.0, pivot)[:, None]
        a[:, col + 1:, col:] -= factor[:, :, None] * a[:, None, col, col:]
    det[(np.diagonal(a, axis1=1, axis2=2) == 0.0).any(axis=1)] = 0.0
    return float(det[0]) if single else det


def fluid_char_det(s: StatePoint, xi) -> float:
    """det m(U, xi), the brute-force side of the factorization identity."""
    return det_by_elimination(fluid_symbol(s, xi))


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


def det_time_matrix_closed_form(eta, eps, w2, a2: float):
    """Closed-form determinant of the time matrix, elementwise.

        (eta^4 / eps) (1 + w^2)^2 (3 a2 + (a2 - 4) w^2) (a2 + (a2 - 1) w^2)^2

    with w^2 = (u^1)^2 + (u^2)^2 + (u^3)^2; eta, eps and w2 are scalars or
    arrays of one shape.  It is flow.shear.sound at xi = e0: the factors
    are the flow, shear and sound cones' leading coefficients D.  It holds
    on the formula's domain only, Minkowski metric, normalized u and
    a1 = 4, which `det_time_matrix_formula` checks and this does not.
    Positive throughout a2 >= 4, eps > 0, so the time matrix is invertible
    in the whole admissible regime.
    """
    return (eta ** 4 / eps * (1.0 + w2) ** 2
            * (3.0 * a2 + (a2 - 4.0) * w2) * (a2 + (a2 - 1.0) * w2) ** 2)


def check_time_matrix_domain(g: Metric4, u, a1: float) -> None:
    """Raise ValueError unless the closed form holds: Minkowski g, u.u = -1, a1 = 4.

    u is one four-velocity (4,) or a batch (K, 4); the normalization
    residual |u.u + 1| may be at most 1e-10, and for a batch the message
    names the first failing member, "... in member k".
    """
    if not g.is_minkowski:
        raise ValueError("closed form requires the Minkowski metric")
    u = np.asarray(u, dtype=float)
    resid = np.abs(_dot(u, _dot(g.components, u[..., None, :])) + 1.0)
    if np.any(resid > 1e-10):
        where = "" if u.ndim == 1 else f" in member {int(np.flatnonzero(resid > 1e-10)[0])}"
        raise ValueError("closed form requires normalized u" + where)
    if abs(a1 - 4.0) > 1e-12:
        raise ValueError("closed form requires a1 = 4")


def det_time_matrix_formula(s: StatePoint) -> float:
    """`det_time_matrix_closed_form` at a state point, inside its domain.

    Raises ValueError off the domain: a curved metric, unnormalized u or
    a1 != 4 (`check_time_matrix_domain`).
    """
    check_time_matrix_domain(s.g, s.u, s.transport.a1)
    eta, _, _ = s.coefficients()
    w2 = float(s.u[1] ** 2 + s.u[2] ** 2 + s.u[3] ** 2)
    return float(det_time_matrix_closed_form(eta, s.eps, w2, s.transport.a2))
