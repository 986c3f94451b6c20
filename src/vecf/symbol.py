"""The 5x5 fluid principal symbol, its determinant, and the time-coefficient matrix.

Row/column order is (u^0, u^1, u^2, u^3, eps).  Rows 0-3 carry the
second-order coefficients of the four momentum-balance equations with each
d^2_{alpha mu} replaced by xi_alpha xi_mu; row 4 is the normalization
constraint row u_nu (u.xi)^2.  Every entry is homogeneous of degree 2 in xi.
"""

from __future__ import annotations

import numpy as np

from .tensor import Metric4


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


def det_by_elimination(m: np.ndarray) -> np.ndarray:
    """Determinants (K,) of a stack m (K, n, n) by partial-pivoted Gaussian elimination.

    Pivot choice is the largest magnitude with the lowest index on ties,
    which makes the result deterministic for identical inputs; every
    matrix of a stack goes through exactly the operations it would alone,
    so a matrix has the same determinant bitwise in any stack, the stack
    of one included.  A zero pivot gives 0 for its matrix only.
    """
    a = np.array(m, dtype=float)
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
    return det


def det_time_matrix_closed_form(eta, eps, w2, a2: float):
    """Closed-form determinant of the time matrix, elementwise.

        (eta^4 / eps) (1 + w^2)^2 (3 a2 + (a2 - 4) w^2) (a2 + (a2 - 1) w^2)^2

    with w^2 = (u^1)^2 + (u^2)^2 + (u^3)^2; eta, eps and w2 are scalars or
    arrays of one shape.  It is flow.shear.sound at xi = e0: the factors
    are the flow, shear and sound cones' leading coefficients D.  It holds
    on the formula's domain only, Minkowski metric, normalized u and
    a1 = 4, which `check_time_matrix_domain` checks and this does not.
    Positive throughout a2 >= 4, eps > 0, so the time matrix is invertible
    in the whole admissible regime.  eta^4 / eps is formed as
    eta (eta (eta (eta / eps))), and at a2 >= 4 every later factor is at
    least 1, so no partial product overflows where the value is finite
    (eps subnormal aside).  At eta0 = 1 eta^4 = eps^3 alone overflows
    from about eps = 6e102, and eta^3 from about 1e137.
    """
    return (eta * (eta * (eta * (eta / eps))) * (1.0 + w2) ** 2
            * (3.0 * a2 + (a2 - 4.0) * w2) * (a2 + (a2 - 1.0) * w2) ** 2)


def check_time_matrix_domain(g: Metric4, u, a1: float) -> None:
    """Raise ValueError unless the closed form holds: Minkowski g, u.u = -1, a1 = 4.

    u is a batch of four-velocities (K, 4); the normalization residual
    |u.u + 1| may be at most 1e-10, and the message names the first
    failing member, "... in member k".
    """
    if not g.is_minkowski:
        raise ValueError("closed form requires the Minkowski metric")
    u = np.asarray(u, dtype=float)
    bad = np.flatnonzero(np.abs(_dot(u, _dot(g.components, u[:, None, :])) + 1.0) > 1e-10)
    if bad.size:
        raise ValueError(f"closed form requires normalized u in member {int(bad[0])}")
    if abs(a1 - 4.0) > 1e-12:
        raise ValueError("closed form requires a1 = 4")
