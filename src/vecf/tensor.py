"""Minimal 4D Lorentzian tensor algebra on coordinate components.

Everything works on plain component arrays in a fixed coordinate basis,
signature -+++.  Vectors and covectors are thin immutable wrappers whose
only job is to keep variance explicit: contractions pair opposite
variances directly, equal variances go through a metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Metric4",
    "Vec4",
    "Covec4",
    "minkowski",
    "random_lorentzian_near_minkowski",
    "lower",
    "raise_index",
    "inner",
]

_DET_GUARD = 1e-10
_INVERSE_TOL = 1e-12


def _ordered_contract(a: np.ndarray, m: np.ndarray, b: np.ndarray) -> float:
    """a^alpha m_{alpha beta} b^beta, fixed alpha-then-beta order, diagonal-major.

    Off-diagonal pairs are accumulated as m[a,b] * (x*y + y*x) so the result
    is bit-identical under exchanging the two vectors (m is symmetric); the
    fixed order makes it reproducible across runs.
    """
    total = 0.0
    for alpha in range(4):
        total += m[alpha, alpha] * (a[alpha] * b[alpha])
    for alpha in range(4):
        for beta in range(alpha + 1, 4):
            total += m[alpha, beta] * (a[alpha] * b[beta] + a[beta] * b[alpha])
    return total


@dataclass(frozen=True)
class Metric4:
    """Symmetric Lorentzian metric g_{alpha beta} with cached inverse."""

    components: np.ndarray
    inverse: np.ndarray = field(repr=False)

    @classmethod
    def from_components(cls, components) -> "Metric4":
        g = np.array(components, dtype=float)
        if g.shape != (4, 4):
            raise ValueError(f"metric must be 4x4, got shape {g.shape}")
        if not np.allclose(g, g.T, rtol=0.0, atol=1e-14 * max(1.0, np.abs(g).max())):
            raise ValueError("metric components must be symmetric")
        g = 0.5 * (g + g.T)
        det = np.linalg.det(g)
        if abs(det) <= _DET_GUARD:
            raise ValueError(f"metric determinant {det:.3e} below guard {_DET_GUARD:.0e}")
        eigs = np.linalg.eigvalsh(g)
        if not (np.sum(eigs < 0.0) == 1 and np.sum(eigs > 0.0) == 3):
            raise ValueError(f"metric is not Lorentzian; eigenvalues {eigs}")
        inv = np.linalg.inv(g)
        resid = np.abs(g @ inv - np.eye(4)).max()
        if resid > _INVERSE_TOL:
            raise ValueError(f"inverse residual {resid:.3e} exceeds {_INVERSE_TOL:.0e}")
        g.setflags(write=False)
        inv.setflags(write=False)
        return cls(components=g, inverse=inv)

    @property
    def is_minkowski(self) -> bool:
        return bool(np.array_equal(self.components, np.diag([-1.0, 1.0, 1.0, 1.0])))


@dataclass(frozen=True)
class Vec4:
    """Contravariant four-vector v^alpha."""

    components: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.components, dtype=float)
        if a.shape != (4,):
            raise ValueError(f"Vec4 needs 4 components, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("Vec4 components must be finite")
        a.setflags(write=False)
        object.__setattr__(self, "components", a)


@dataclass(frozen=True)
class Covec4:
    """Covariant four-covector xi_alpha."""

    components: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.components, dtype=float)
        if a.shape != (4,):
            raise ValueError(f"Covec4 needs 4 components, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("Covec4 components must be finite")
        a.setflags(write=False)
        object.__setattr__(self, "components", a)


_MINKOWSKI = Metric4.from_components(np.diag([-1.0, 1.0, 1.0, 1.0]))


def minkowski() -> Metric4:
    """Flat metric diag(-1, 1, 1, 1); the inverse is exact.

    One validated instance shared by every caller: Metric4 is frozen and
    its component arrays are read-only.
    """
    return _MINKOWSKI


def random_lorentzian_near_minkowski(delta: float, seed: int) -> Metric4:
    """Minkowski plus a seeded symmetric perturbation with max-norm <= delta.

    Deterministic per seed.  delta is capped at 0.1, which keeps the
    signature (-,+,+,+) with a wide margin (eigenvalue gap is 1 at delta=0
    and perturbations move eigenvalues by at most 4*delta).
    """
    if not 0.0 <= delta <= 0.1:
        raise ValueError(f"delta must lie in [0, 0.1], got {delta}")
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-delta, delta, size=(4, 4))
    pert = 0.5 * (raw + raw.T)
    if delta > 0.0 and np.abs(pert).max() > 0.0:
        pert *= delta / np.abs(pert).max() * rng.uniform(0.5, 1.0)
    return Metric4.from_components(np.diag([-1.0, 1.0, 1.0, 1.0]) + pert)


def lower(v: Vec4, g: Metric4) -> Covec4:
    """v_alpha = g_{alpha beta} v^beta."""
    comps = v.components
    out = np.empty(4)
    for alpha in range(4):
        acc = 0.0
        for beta in range(4):
            acc += g.components[alpha, beta] * comps[beta]
        out[alpha] = acc
    return Covec4(out)


def raise_index(xi: Covec4, g: Metric4) -> Vec4:
    """xi^alpha = g^{alpha beta} xi_beta."""
    comps = xi.components
    out = np.empty(4)
    for alpha in range(4):
        acc = 0.0
        for beta in range(4):
            acc += g.inverse[alpha, beta] * comps[beta]
        out[alpha] = acc
    return Vec4(out)


def inner(a, b, g: Metric4) -> float:
    """Scalar contraction of two four-(co)vectors.

    Vec4 with Vec4 contracts through g, Covec4 with Covec4 through the
    inverse metric, and mixed variances pair directly without a metric.
    """
    if isinstance(a, Vec4) and isinstance(b, Vec4):
        return _ordered_contract(a.components, g.components, b.components)
    if isinstance(a, Covec4) and isinstance(b, Covec4):
        return _ordered_contract(a.components, g.inverse, b.components)
    if isinstance(a, Vec4) and isinstance(b, Covec4):
        return float(np.sum(a.components * b.components))
    if isinstance(a, Covec4) and isinstance(b, Vec4):
        return float(np.sum(a.components * b.components))
    raise TypeError(f"inner expects Vec4/Covec4 operands, got {type(a)}, {type(b)}")
