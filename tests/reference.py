"""Single-state references for the tests: one state point at a time.

The package computes every state function on arrays of K states.  These
wrappers evaluate one state, and tests compare the batched functions
against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vecf.characteristics import cone_roots_batch, factor_base_values, factor_values
from vecf.constitutive import TransportModel, transport
from vecf.equations import symbol_apply
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


def symbol_block(u, eps, eta, lam, chi, a: int, c: int) -> np.ndarray:
    """B(e_a, e_c) as a (5, 5, N) block, column j = `symbol_apply` of e_j:
    the block view of the symbol, for checks against the full symbol and a
    dense solve."""
    cols = []
    for j in range(5):
        e_j = np.zeros((5,) + eps.shape)
        e_j[j] = 1.0
        cols.append(symbol_apply(u, eps, eta, lam, chi, a, c, e_j))
    return np.stack(cols, axis=1)


def state_arrays(states):
    """(u (K, 4), a2 (K,), g (K, 4, 4)) of K StatePoints: the state
    arguments of `bisection_roots`, in its order."""
    return (np.array([s.u for s in states]),
            np.array([s.transport.a2 for s in states]),
            np.array([s.g.components for s in states]))
