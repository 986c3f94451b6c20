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

__all__ = [
    "StatePoint",
    "fluid_symbol",
    "fluid_char_det",
    "coupled_char_det",
    "time_matrix",
    "det_time_matrix_closed_form",
    "det_time_matrix_formula",
    "det_by_elimination",
    "symbol_components",
]


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

    def normalization_residual(self) -> float:
        return float(abs(self.u @ self.g.components @ self.u + 1.0))


def _as_covector(xi) -> np.ndarray:
    return np.asarray(xi, dtype=float).reshape(4)


def symbol_components(u, eps, eta, lam, chi, g: np.ndarray, ginv: np.ndarray,
                      xi: np.ndarray) -> np.ndarray:
    """Assemble the symbol for batched states; plain-array core.

    u (4, ...), eps/eta/lam/chi (...), g and ginv fixed (4, 4), xi (4,).
    Returns (..., 5, 5).  For row b <= 3 and column n <= 3 the entry is

        delta_bn * [-eta xi.xi + (lam - eta)(u.xi)^2]
        + [(lam + chi) u^b (u.xi) + (chi - eta)/3 (xi^b + u^b (u.xi))] xi_n

    which reproduces the divergence-equation coefficients of d^2 u^n; the
    first bracket collects the wave-operator part, the second the
    gradient-of-divergence part (no-sum diagonal convention included).
    """
    u = np.asarray(u, dtype=float)
    eps = np.asarray(eps, dtype=float)
    shape = eps.shape
    xiup = ginv @ xi
    uxi = np.einsum('a,a...->...', xi, u)
    xixi = float(xi @ xiup)
    u_dn = np.einsum('ab,b...->a...', g, u)

    Q = -eta * xixi + (lam - eta) * uxi ** 2
    m = np.zeros(shape + (5, 5))
    for b in range(4):
        row_c = (lam + chi) * u[b] * uxi + (chi - eta) / 3.0 * (xiup[b] + u[b] * uxi)
        for n in range(4):
            m[..., b, n] = row_c * xi[n]
        m[..., b, b] += Q
        m[..., b, 4] = (u[b] * (lam * xixi + (lam + 3.0 * chi) * uxi ** 2)
                        + (lam + chi) * (uxi * xiup[b] + u[b] * uxi ** 2)) / (4.0 * eps)
    uxi2 = uxi ** 2
    for n in range(4):
        m[..., 4, n] = u_dn[n] * uxi2
    return m


def fluid_symbol(s: StatePoint, xi) -> np.ndarray:
    """5x5 principal symbol m(U, xi) at a state point."""
    xi = _as_covector(xi)
    eta, lam, chi = s.coefficients()
    return symbol_components(s.u, np.asarray(s.eps), float(eta), float(lam),
                             float(chi), s.g.components, s.g.inverse, xi)


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


def det_time_matrix_formula(s: StatePoint) -> float:
    """`det_time_matrix_closed_form` at a state point, inside its domain.

    Raises ValueError off the domain: a curved metric, unnormalized u or
    a1 != 4.
    """
    if not s.g.is_minkowski:
        raise ValueError("closed form requires the Minkowski metric")
    if s.normalization_residual() > 1e-10:
        raise ValueError("closed form requires normalized u")
    if abs(s.transport.a1 - 4.0) > 1e-12:
        raise ValueError("closed form requires a1 = 4")
    eta, _, _ = s.coefficients()
    w2 = float(s.u[1] ** 2 + s.u[2] ** 2 + s.u[3] ** 2)
    return float(det_time_matrix_closed_form(eta, s.eps, w2, s.transport.a2))
