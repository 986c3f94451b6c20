import os
from dataclasses import replace

import numpy as np
import pytest

from vecf import experiments
from vecf.constitutive import TransportModel
from vecf.experiments import (DodPlacement, DodReport, convergence_study,
                              dod_experiment, pulse_speed_experiment)
from vecf.solver1d import SolverConfig, constant_state, evolve, gaussian_pulse


def test_convergence_study_validates_resolutions():
    cfg = SolverConfig(transport=TransportModel(a2=6.0), n_cells=64, t_end=0.05,
                       ic=gaussian_pulse(amplitude=0.03))
    with pytest.raises(ValueError):
        convergence_study(cfg, resolutions=(64, 128))
    with pytest.raises(ValueError):
        convergence_study(cfg, resolutions=(64, 128, 512))


def test_convergence_study_constant_state_is_exact():
    cfg = SolverConfig(transport=TransportModel(a2=6.0), n_cells=64, t_end=0.05,
                       ic=constant_state())
    report = convergence_study(cfg, resolutions=(32, 64, 128))
    assert report.observed_order is None     # differences at round-off


def test_convergence_study_small_pulse():
    cfg = SolverConfig(transport=TransportModel(a2=6.0), n_cells=64, length=2.0,
                       t_end=0.1, ic=gaussian_pulse(amplitude=0.05))
    report = convergence_study(cfg, resolutions=(64, 128, 256))
    order = report.observed_order
    assert order is not None
    assert 3.4 <= order <= 4.6
    drift_orders = report.drift_orders()
    assert all(o > 2.5 for o in drift_orders)


def test_dod_geometry_rejections():
    cfg = SolverConfig(transport=TransportModel(a2=6.0), n_cells=64, length=2.0,
                       t_end=0.35, ic=constant_state())
    # cone exits the domain before the probe time
    with pytest.raises(ValueError):
        dod_experiment(cfg, probe_t=2.0, probe_x=0.5, resolutions=(64,))
    # a cone too short for the bump radius DOD_RADIUS
    with pytest.raises(ValueError, match="does not fit inside the cone"):
        dod_experiment(cfg, probe_t=0.1, probe_x=0.5, resolutions=(64, 128))
    # bump_perturbation does not wrap: the outside bump would sit across
    # x = L (probe_x 1.5) or beyond it (1.7), the inside bump across x = 0
    for probe_x in (1.5, 1.7, 0.1):
        with pytest.raises(ValueError, match="support"):
            dod_experiment(cfg, probe_t=0.35, probe_x=probe_x, resolutions=(64, 128))


def test_dod_zero_amplitude_exact_zero():
    cfg = SolverConfig(transport=TransportModel(a2=6.0), n_cells=64, length=2.0,
                       t_end=0.35, ic=constant_state())
    report = dod_experiment(cfg, probe_t=0.35, probe_x=0.5,
                            resolutions=(64, 128))
    assert report.zero_amplitude_diff == 0.0


def test_dod_inside_beats_outside_quickly():
    # cheap two-resolution sanity run; the full scaling is in acceptance
    cfg = SolverConfig(transport=TransportModel(a2=6.0), n_cells=128, length=2.0,
                       t_end=0.35, ic=constant_state())
    report = dod_experiment(cfg, probe_t=0.35, probe_x=0.5,
                            resolutions=(128, 256))
    assert report.inside_diffs[-1] > 1e3 * report.outside_diffs[-1]
    assert report.outside_diffs[0] > report.outside_diffs[1]


def _counting_evolve(monkeypatch):
    """Wrap the `evolve` that dod_experiment calls, and return the list of
    the ensemble sizes it is given.  The ladder runs in this process, on a
    one-CPU mask, so that the list sees every call."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    sizes = []

    def counted(cfg, ics):
        sizes.append(len(ics))
        return evolve(cfg, ics=ics)
    monkeypatch.setattr(experiments, "evolve", counted)
    return sizes


@pytest.mark.parametrize("eps0,stepped", [(1.0, [3, 2]), (0.7, [4, 3])])
def test_dod_skipping_a_fixed_base_keeps_the_report(monkeypatch, eps0, stepped):
    # the report equals, field by field, the one that always steps the base;
    # at eps0 = 0.7 the base is no exact fixed point and is stepped anyway
    cfg = SolverConfig(transport=TransportModel(a2=6.0), n_cells=64, length=2.0,
                       t_end=0.35, ic=constant_state(eps0=eps0))

    def run():
        return dod_experiment(cfg, probe_t=0.35, probe_x=0.5, resolutions=(64, 128))
    sizes = _counting_evolve(monkeypatch)
    report = run()
    assert sizes == stepped
    monkeypatch.setattr(experiments, "_fixed_point", lambda cfg: None)
    reference = run()
    assert sizes[2:] == [4, 3]
    for name in DodReport.__dataclass_fields__:
        assert getattr(report, name) == getattr(reference, name), name


def test_dod_steps_only_the_bumps_over_a_fixed_base(monkeypatch):
    # [outside, inside, null] on the first grid, [outside, inside] after
    cfg = SolverConfig(transport=TransportModel(a2=6.0), n_cells=128, length=2.0,
                       t_end=0.35, ic=constant_state())
    sizes = _counting_evolve(monkeypatch)
    report = dod_experiment(cfg, probe_t=0.35, probe_x=0.5,
                            resolutions=(128, 256, 512))
    assert sizes == [3, 2, 2]
    assert report.zero_amplitude_diff == 0.0


def test_pulse_speed_shear_quick():
    report = pulse_speed_experiment("shear", a2=4.0, n_cells=512,
                                    t_first=0.25, t_second=0.5)
    assert report.expected_speed == 0.5
    assert report.relative_error < 0.1


def test_pulse_speed_rejects_unknown_family():
    with pytest.raises(ValueError):
        pulse_speed_experiment("bulk", a2=4.0)


def test_dod_report_verdict_takes_ratio_8_inclusive():
    pl = DodPlacement(center=1.0, radius=0.1, amplitude=0.02, inside=False,
                      margin_cells=3.0)
    rep = DodReport(probe_t=0.35, probe_x=0.5, v_max=1.0, cone_radius=0.35,
                    resolutions=(128, 256, 512), outside=pl, inside=pl,
                    outside_diffs=(2.0 ** -16, 2.0 ** -19, 2.0 ** -24),
                    inside_diffs=(0.0241, 0.0242, 0.0242),
                    zero_amplitude_diff=0.0)
    assert rep.outside_ratios == (8.0, 32.0) and rep.outside_order == 4.0
    assert rep.passed
    assert not replace(rep, zero_amplitude_diff=1e-18).passed
    assert not replace(rep, outside_diffs=(2.0 ** -16, 2.0 ** -18.9, 2.0 ** -24)).passed
    assert not replace(rep, inside_diffs=(0.0241, 0.03, 0.0242)).passed


def test_dod_rejects_single_resolution():
    cfg = SolverConfig(transport=TransportModel(a2=6.0), n_cells=64, length=2.0,
                       t_end=0.35, ic=constant_state())
    with pytest.raises(ValueError, match="two resolutions"):
        dod_experiment(cfg, probe_t=0.35, probe_x=0.5, resolutions=(64,))


def test_dod_report_fails_on_a_zero_difference():
    pl = DodPlacement(center=1.0, radius=0.1, amplitude=0.02, inside=False,
                      margin_cells=3.0)
    rep = DodReport(probe_t=0.35, probe_x=0.5, v_max=1.0, cone_radius=0.35,
                    resolutions=(128, 256, 512), outside=pl, inside=pl,
                    outside_diffs=(2.0 ** -16, 0.0, 0.0),
                    inside_diffs=(0.0241, 0.0242, 0.0242),
                    zero_amplitude_diff=0.0)
    assert all(np.isnan(r) for r in rep.outside_ratios)
    assert np.isnan(rep.outside_order)
    assert not rep.passed
    rep = replace(rep, outside_diffs=(0.0, 0.0, 0.0))
    assert np.isnan(rep.outside_order) and not rep.passed
    rep = replace(rep, outside_diffs=(2.0 ** -16, 2.0 ** -19, 0.0))
    assert rep.outside_ratios[0] == 8.0 and np.isnan(rep.outside_ratios[1])
    assert not rep.passed
