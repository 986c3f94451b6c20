"""Transport coefficients, the viscous stress tensor, and initial-data completion.

The fluid is pure radiation (p = eps/3) with shear viscosity eta(eps) and the
two relaxation-type coefficients tied to it by constant ratios:
chi = a1 * eta and lam = a2 * eta.  The stress tensor is assembled in flat
Cartesian coordinates only; that is all the symbol modules and the 1+1D
solver ever need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SGN = np.array([-1.0, 1.0, 1.0, 1.0])  # diagonal of the flat metric, -+++
# the exponent of eta(eps) = eta0 * eps**P_EXP: a conformal fluid has no
# scale but its temperature, so eta ~ T^3 and eps ~ T^4 give eta ~ eps^(3/4)
P_EXP = 0.75


@dataclass(frozen=True)
class TransportModel:
    """Shear viscosity model plus the two proportionality constants.

    eta_form "constant" gives eta(eps) = eta0; "power" gives the conformal
    eta(eps) = eta0 * eps**P_EXP.  Both are positive and analytic on
    eps > 0, which is all the theory requires of eta.  a1 defaults to the
    paper's causal value 4, the only one the solver steps; the tests of
    the symbol and of the equations build models at other a1.
    """

    a1: float = 4.0
    a2: float = 4.0
    eta_form: str = "power"
    eta0: float = 1.0

    def __post_init__(self):
        if self.eta_form not in ("constant", "power"):
            raise ValueError(f"unknown eta_form {self.eta_form!r}")
        if self.eta0 < 0.0:
            raise ValueError("eta0 must be non-negative")

    def eta(self, eps):
        if self.eta_form == "constant":
            return self.eta0 * np.ones_like(np.asarray(eps, dtype=float))
        return self.eta0 * np.asarray(eps, dtype=float) ** P_EXP

    def eta_prime(self, eps):
        """d eta / d eps, needed by the first-order equation terms."""
        if self.eta_form == "constant":
            return np.zeros_like(np.asarray(eps, dtype=float))
        return self.eta0 * P_EXP * np.asarray(eps, dtype=float) ** (P_EXP - 1.0)


def transport(eps, model: TransportModel):
    """Return (eta, lam, chi) at energy density eps > 0."""
    eps = np.asarray(eps, dtype=float)
    if np.any(eps <= 0.0):
        raise ValueError("energy density must be positive")
    return _coefficients(eps, model)


def _coefficients(eps: np.ndarray, model: TransportModel):
    """`transport` without its check, for a caller that has found eps > 0."""
    eta = model.eta(eps)
    return eta, model.a2 * eta, model.a1 * eta


def _jet_rows(du, deps) -> int:
    """k, the derivative rows d_0 .. d_{k-1} of a first-order jet (u, du, eps,
    deps): du (k, 4, ...) and deps (k, ...) must carry the same rows."""
    if len(du) != len(deps):
        raise ValueError(f"du carries {len(du)} derivative rows and deps {len(deps)}")
    return len(deps)


def stress_tensor_fields(u, du, eps, deps, model: TransportModel,
                         rows=(0, 1, 2, 3)) -> np.ndarray:
    """T_{alpha beta} on batched states; trailing axes broadcast.

    The first-order jet is u (4, ...), eps (...) and the first k derivative
    rows, du (k, 4, ...) with du[a, b] = d_a u^b and deps (k, ...): k = 4,
    or k = 2 for fields that vary in t and x only, whose y and z rows are
    zero.  Returns (len(rows), 4, ...): the rows alpha of `rows`, all four
    by default.  All nine constitutive terms are assembled symmetrically in
    (alpha, beta), and a row reads the transposed half of each from the
    same factors, so it needs none of the other rows.  On a batch of two or
    more points a row has the bits it has in the full tensor; at a single
    point einsum may sum it in another order.  A (t, x) jet gives the bits
    of the same jet padded with zero rows.
    """
    u = np.asarray(u, dtype=float)
    du = np.asarray(du, dtype=float)
    eps = np.asarray(eps, dtype=float)
    deps = np.asarray(deps, dtype=float)
    k = _jet_rows(du, deps)
    eta, lam, chi = transport(eps, model)

    r = list(rows)
    shape = eps.shape
    gd = np.diag(SGN).reshape((4, 4) + (1,) * len(shape))
    u_dn = SGN.reshape((4,) + (1,) * len(shape)) * u
    # the shear rate's transpose reads all four rows of the velocity
    # gradient; the rows the jet does not carry are zero
    du_dn = np.zeros((4,) + du.shape[1:])
    du_dn[:k] = du
    du_dn *= SGN.reshape((1, 4) + (1,) * len(shape))
    theta = np.einsum('aa...->...', du[:, :k])
    acc_dn = SGN.reshape((4,) + (1,) * len(shape)) * np.einsum('a...,ab...->b...', u[:k], du)
    udeps = np.einsum('a...,a...->...', u[:k], deps)

    uu = u_dn[r, None] * u_dn[None, :]
    pi_dn = gd[r] + uu
    pi_mix = np.eye(4).reshape((4, 4) + (1,) * len(shape)) + u[:, None] * u_dn[None, :]

    T = (4.0 / 3.0) * uu * eps + (1.0 / 3.0) * gd[r] * eps
    shear = du_dn + np.swapaxes(du_dn, 0, 1) - (2.0 / 3.0) * gd * theta
    # einsum's summation order follows its operands' memory layout, so the
    # selected columns are laid out as the whole pi_mix is
    pi_r = np.ascontiguousarray(pi_mix[:, r])
    visc = np.einsum('ma...,vb...,mv...->ab...', pi_r, pi_mix, shear)
    visc_cols = np.einsum('ma...,vb...,mv...->ab...', pi_mix, pi_r, shear)
    # the projected contraction is symmetric in exact arithmetic; averaging
    # with its transpose keeps it bitwise symmetric in floating point too
    T = T - eta * 0.5 * (visc + np.swapaxes(visc_cols, 0, 1))
    T = T + lam * (u_dn[r, None] * acc_dn[None, :] + u_dn[None, :] * acc_dn[r, None])
    T = T + (chi / 3.0) * pi_dn * theta + chi * uu * theta
    pdeps = np.einsum('ma...,m...->a...', pi_mix[:k], deps)
    T = T + (lam / (4.0 * eps)) * (u_dn[r, None] * pdeps[None, :]
                                   + u_dn[None, :] * pdeps[r, None])
    T = T + (3.0 * chi / (4.0 * eps)) * uu * udeps
    T = T + (chi / (4.0 * eps)) * pi_dn * udeps
    return T


def complete_initial_data(eps0, eps1, v0, v1):
    """Complete reduced flat-space data to full (u, d_t u, eps, d_t eps) at t=0.

    v0, v1 hold the spatial velocity components and their time derivatives,
    shape (3,) or (3, ...) for fields.  The time components follow from the
    normalization u.u = -1 with the flat spatial metric:

        u^0      = sqrt(1 + |v0|^2)
        d_t u^0  = (v0 . v1) / sqrt(1 + |v0|^2)

    which also forces d_t(u.u) = 0 at t = 0.
    """
    eps0 = np.asarray(eps0, dtype=float)
    eps1 = np.asarray(eps1, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    if v0.shape[0] != 3 or v1.shape[0] != 3:
        raise ValueError("v0 and v1 must have leading dimension 3")
    if np.any(eps0 <= 0.0):
        raise ValueError("initial energy density must be positive")
    v0sq = np.einsum('i...,i...->...', v0, v0)
    u0 = np.sqrt(1.0 + v0sq)
    du0 = np.einsum('i...,i...->...', v0, v1) / u0
    u = np.concatenate([u0[None], v0], axis=0)
    dtu = np.concatenate([du0[None], v1], axis=0)
    return u, dtu, eps0, eps1
