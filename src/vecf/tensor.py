"""Lorentzian 4-metrics on coordinate components, signature -+++.

Vectors and covectors are plain component arrays in a fixed coordinate
basis; a metric carries its validated components and inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Metric4",
    "minkowski",
    "random_lorentzian_near_minkowski",
]

_DET_GUARD = 1e-10
_INVERSE_TOL = 1e-12


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
