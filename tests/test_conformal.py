"""Conformal symmetry of the evolution.

With eta = eta0 eps^(3/4) the fluid has no scale of its own: if
(eps, u)(t, x) solves the equations, so does (lam^-4 eps, u)(t / lam,
x / lam).  In the solver that is a second run with length and t_end
multiplied by lam, the same N and cfl, and the data taken at x / lam with
eps0 times lam^-4, eps1 times lam^-5 and v1 times lam^-1.  Its h and dt are
lam times the base run's, and its final eps times lam^4, and u, equal the
base run's up to rounding.  A viscosity exponent other than 3/4 breaks the
symmetry, and the same comparison then reads ten orders of magnitude more.
"""

from dataclasses import replace

import numpy as np

from vecf import constitutive
from vecf.constitutive import TransportModel
from vecf.solver1d import InitialData, SolverConfig, evolve, gaussian_pulse, shear_pulse

CFG = SolverConfig(transport=TransportModel(a2=6.0, eta0=1.0), n_cells=256, length=2.0,
                   t_end=0.5)
PULSES = (gaussian_pulse(), shear_pulse())
# the largest difference of a scaled run from the base run, over the fields
# and relative to the base run's largest value, for the conformal fluid;
# and the least for an exponent of 0.7
CONFORMAL_TOL = 1e-12
BROKEN_MIN = 1e-5


def _scaled(ic: InitialData, lam: float) -> InitialData:
    return InitialData(name=ic.name, eps0=lambda x: ic.eps0(x / lam) / lam ** 4,
                       eps1=lambda x: ic.eps1(x / lam) / lam ** 5,
                       v0=lambda x: ic.v0(x / lam), v1=lambda x: ic.v1(x / lam) / lam)


def _run(lam: float) -> list:
    """Both pulses scaled by lam, as one ensemble evolve."""
    cfg = replace(CFG, length=lam * CFG.length, t_end=lam * CFG.t_end)
    return evolve(cfg, ics=[_scaled(ic, lam) for ic in PULSES])


def _difference(scaled, base, lam: float) -> float:
    """max |V_lam - V_1| over the fields, eps times lam^4, relative to max |V_1|."""
    got = scaled.final * np.array([1.0, 1.0, 1.0, 1.0, lam ** 4])[:, None]
    return float(np.abs(got - base.final).max() / np.abs(base.final).max())


def test_a_scaled_run_is_the_base_run_rescaled():
    base = _run(1.0)
    for lam in (2.0, 0.5):
        for scaled, ref in zip(_run(lam), base):
            assert scaled.dt == lam * ref.dt
            assert _difference(scaled, ref, lam) <= CONFORMAL_TOL


def test_a_non_conformal_exponent_breaks_the_scaling(monkeypatch):
    monkeypatch.setattr(constitutive, "P_EXP", 0.7)
    base = _run(1.0)
    for scaled, ref in zip(_run(2.0), base):
        assert _difference(scaled, ref, 2.0) > BROKEN_MIN
