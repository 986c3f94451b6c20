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


def near_minkowski_components(delta: float, uniforms) -> np.ndarray:
    """Minkowski plus symmetric perturbations with max-norm <= delta.

    uniforms is (K, 17) draws on [0, 1), one row per metric: columns 0-15
    become the raw entries on [-delta, delta) in row-major order, and
    column 16 the scale in [0.5, 1) that sets the perturbation's peak to
    that fraction of delta.  Returns (K, 4, 4) components, exactly
    symmetric and not validated.  delta is capped at 0.1, which keeps the
    signature (-,+,+,+) with a wide margin (eigenvalue gap is 1 at
    delta=0 and perturbations move eigenvalues by at most 4*delta).
    """
    if not 0.0 <= delta <= 0.1:
        raise ValueError(f"delta must lie in [0, 0.1], got {delta}")
    r = np.asarray(uniforms, dtype=float)
    if r.ndim != 2 or r.shape[1] != 17:
        raise ValueError(f"uniforms must be (K, 17), got shape {r.shape}")
    raw = (-delta + 2.0 * delta * r[:, :16]).reshape(-1, 4, 4)
    pert = 0.5 * (raw + raw.swapaxes(1, 2))
    peak = np.abs(pert).max(axis=(1, 2))
    # peak is 0 only at delta = 0: that perturbation stays zero, with no 0 / 0
    scale = delta / np.where(peak > 0.0, peak, 1.0) * (0.5 + 0.5 * r[:, 16])
    return _MINKOWSKI.components + pert * scale[:, None, None]
