"""Lorentzian 4-metrics on coordinate components, signature -+++.

Vectors and covectors are plain component arrays in a fixed coordinate
basis; a metric carries its validated components and inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_DET_GUARD = 1e-10
_INVERSE_TOL = 1e-12


def validate_metrics(g: np.ndarray):
    """Check Lorentzian metric components; return them symmetrized, and the inverse.

    g is one (4, 4) metric or a stack (K, 4, 4); the result has the same
    shape.  Four checks run over the whole stack at once: symmetry to
    1e-14 of the largest entry, |det g| above the guard, one negative and
    three positive eigenvalues, and an inverse residual |g g^-1 - 1| within
    tolerance.  A failing check raises ValueError; for a stack, the message
    names the first failing member, "... in member k".
    """
    g = np.asarray(g, dtype=float)
    if g.ndim not in (2, 3) or g.shape[-2:] != (4, 4):
        raise ValueError(f"metrics must be (4, 4) or (K, 4, 4), got shape {g.shape}")
    single = g.ndim == 2
    stack = g[None] if single else g

    def reject(bad, message):
        """Raise for the first member flagged in bad; message(k) describes it."""
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise ValueError(message(k) + ("" if single else f" in member {k}"))

    gt = stack.swapaxes(1, 2)
    atol = 1e-14 * np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
    reject(~np.isclose(stack, gt, rtol=0.0, atol=atol[:, None, None]).all(axis=(1, 2)),
           lambda k: "metric components must be symmetric")
    stack = 0.5 * (stack + gt)
    det = np.linalg.det(stack)
    reject(np.abs(det) <= _DET_GUARD,
           lambda k: f"metric determinant {det[k]:.3e} below guard {_DET_GUARD:.0e}")
    eigs = np.linalg.eigvalsh(stack)
    reject(((eigs < 0.0).sum(axis=1) != 1) | ((eigs > 0.0).sum(axis=1) != 3),
           lambda k: f"metric is not Lorentzian; eigenvalues {eigs[k]}")
    inv = np.linalg.inv(stack)
    resid = np.abs(stack @ inv - np.eye(4)).max(axis=(1, 2))
    reject(resid > _INVERSE_TOL,
           lambda k: f"inverse residual {resid[k]:.3e} exceeds {_INVERSE_TOL:.0e}")
    return (stack[0], inv[0]) if single else (stack, inv)


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
        g, inv = validate_metrics(g)
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


def near_minkowski_components(delta: float, seed: int) -> np.ndarray:
    """Minkowski plus a seeded symmetric perturbation with max-norm <= delta.

    Deterministic per seed; the components are exactly symmetric and not
    validated.  delta is capped at 0.1, which keeps the signature (-,+,+,+)
    with a wide margin (eigenvalue gap is 1 at delta=0 and perturbations
    move eigenvalues by at most 4*delta).
    """
    if not 0.0 <= delta <= 0.1:
        raise ValueError(f"delta must lie in [0, 0.1], got {delta}")
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-delta, delta, size=(4, 4))
    pert = 0.5 * (raw + raw.T)
    peak = np.abs(pert).max()
    if delta > 0.0 and peak > 0.0:
        pert *= delta / peak * rng.uniform(0.5, 1.0)
    return _MINKOWSKI.components + pert


def random_lorentzian_near_minkowski(delta: float, seed: int) -> Metric4:
    """The validated metric of `near_minkowski_components`(delta, seed)."""
    return Metric4.from_components(near_minkowski_components(delta, seed))
