"""The benchmark's workloads: each a closed loop with one client.

A workload draws its inputs from the seed once, at set-up, so every
operation of a run does the same work and a seed's verdicts repeat.  An
operation runs vecf once and checks its outputs with the thresholds of
``tests/test_acceptance.py``, copied verbatim.  It is a list of phases; a
phase that raises (``SolverAbort`` included) fails every check it owed,
and the loop goes on.

- ``dod``: criterion 09's domain-of-dependence experiment on three grids
  that fit in L2.  Per-call overhead dominates, so solver ensembles and
  dropping redundant evolves show here.
- ``evolve-wide``: ``vecf evolve`` at N = 4096 with the filter and a fixed
  diagnostics cadence, run through ``cli.main``.  One run with nothing to
  batch and temporaries beyond L2: per-cell kernel work, the filter,
  diagnostics and the CLI and config layers show here.
- ``claims``: the seeded sample suites and the one-shot checks, all scalar
  Python with no solver.  A symbol or tensor change that speeds the
  solver's batched path but slows this one shows as a regression.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from vecf import (causality, characteristics, cli, config, equations,
                  experiments, solver1d, verification)
from vecf.constitutive import TransportModel

A2 = 6.0


@dataclass
class Phase:
    name: str
    seconds: float
    checks: dict           # check name -> passed
    values: dict           # measured values the checks judged
    samples: int = 0       # suite samples drawn, for the samples/s metrics
    error: str | None = None


@dataclass
class Operation:
    wall_s: float
    phases: list

    @property
    def attempted(self) -> int:
        return sum(len(p.checks) for p in self.phases)

    @property
    def failed(self) -> int:
        return sum(not ok for p in self.phases for ok in p.checks.values())


def run_phase(name: str, check_names: tuple, fn, samples: int = 0) -> Phase:
    """Time fn(values); it returns {check: passed} or raises, failing every check.

    fn may record the measured numbers it judged in ``values``.
    """
    values = {}
    start = time.perf_counter()
    try:
        checks = {check: bool(ok) for check, ok in fn(values).items()}
        error = None
    except Exception:      # one failed operation must not end the run
        checks = dict.fromkeys(check_names, False)
        error = traceback.format_exc()
        print(f"phase {name} raised:\n{error}", file=sys.stderr)
    return Phase(name, time.perf_counter() - start, checks, values, samples, error)


@dataclass
class Workload:
    seed: int
    size: str
    work_dir: Path
    sizes: dict = field(init=False)

    def __post_init__(self):
        self.sizes = self.SIZES[self.size]
        self.setup(np.random.default_rng(self.seed))

    def operation(self) -> Operation:
        start = time.perf_counter()
        phases = self.phases()
        return Operation(time.perf_counter() - start, phases)


class Dod(Workload):
    """Criterion 09 at resolutions (128, 256, 512); the seed draws probe_x."""

    SIZES = {"full": {"resolutions": (128, 256, 512)},
             "smoke": {"resolutions": (64, 128)}}
    PROBE_T = 0.35
    CHECKS = ("outside_ratios", "outside_order", "inside_stable",
              "inside_limit", "zero_amplitude")

    def setup(self, rng):
        # both bumps stay inside [0, L): bump_perturbation does not wrap,
        # and the outside bump sits 0.62 right of the probe at a2 = 6
        self.probe_x = float(rng.uniform(0.3, 1.1))
        res = self.sizes["resolutions"]
        self.cfg = solver1d.SolverConfig(
            transport=TransportModel(a2=A2), n_cells=res[0], length=2.0,
            t_end=self.PROBE_T, ic=solver1d.constant_state(), filter_strength=0.0)
        for n in res:
            solver1d.make_grid(replace(self.cfg, n_cells=n))

    def phases(self) -> list:
        def verdict(values):
            rep = experiments.dod_experiment(
                self.cfg, probe_t=self.PROBE_T, probe_x=self.probe_x,
                resolutions=self.sizes["resolutions"])
            values.update(probe_x=self.probe_x, outside_ratios=rep.outside_ratios,
                          outside_order=rep.outside_order,
                          inside_diffs=rep.inside_diffs,
                          outside_diffs=rep.outside_diffs,
                          zero_amplitude_diff=rep.zero_amplitude_diff)
            return {
                "outside_ratios": all(r >= 8.0 for r in rep.outside_ratios),
                "outside_order": 3.5 <= rep.outside_order <= 5.5,
                "inside_stable": bool(rep.inside_stable),
                "inside_limit": rep.inside_limit > 1e3 * rep.outside_diffs[-1],
                "zero_amplitude": rep.zero_amplitude_diff == 0.0,
            }
        return [run_phase("dod_experiment", self.CHECKS, verdict)]


class EvolveWide(Workload):
    """``vecf evolve`` of a Gaussian sound pulse; the seed sets ic_center."""

    # drift_bound and energy_bound (relative) sit ~200x above the largest
    # constraint drift and energy-integral change measured at each size:
    # 5.1e-15 and 4.4e-16 at full size (seeds 1-10), 4.2e-13 and 2.0e-11
    # at smoke size
    SIZES = {"full": {"n_cells": 4096, "t_end": 0.007, "output_every": 10,
                      "drift_bound": 1e-12, "energy_bound": 1e-13},
             "smoke": {"n_cells": 256, "t_end": 0.05, "output_every": 10,
                       "drift_bound": 1e-10, "energy_bound": 1e-9}}
    CHECKS = ("exit_code", "min_eps", "det_floor", "constraint_drift",
              "energy_change")

    def setup(self, rng):
        self.out = self.work_dir / "evolve-wide"
        # the pulse (width 0.1) stays clear of the edges of [0, 2)
        center = float(rng.uniform(0.7, 1.3))
        overrides = [f"transport.a2={A2!r}",
                     f"solver.n_cells={self.sizes['n_cells']}",
                     f"solver.t_end={self.sizes['t_end']!r}",
                     f"solver.output_every={self.sizes['output_every']}",
                     "solver.ic=gaussian-eps-pulse",
                     f"solver.ic_center={center!r}"]
        self.argv = [arg for item in overrides for arg in ("--set", item)]
        self.argv += ["--out", str(self.out), "evolve"]
        s = config.load_config(None, overrides)["solver"]
        ic = solver1d.gaussian_pulse(amplitude=s["ic_amplitude"], width=s["ic_width"],
                                     center=s["ic_center"], eps0=s["eps0"])
        ic.build(np.arange(s["n_cells"]) * (s["length"] / s["n_cells"]))

    def phases(self) -> list:
        def verdict(values):
            shutil.rmtree(self.out, ignore_errors=True)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(self.argv)
            values["artifact_bytes"] = sum(f.stat().st_size for f in self.out.iterdir())
            lines = (self.out / "evolve_diagnostics.jsonl").read_text().splitlines()
            diags = [json.loads(line) for line in lines]
            e0 = diags[0]["energy_integral"]
            drift = max(d["constraint_drift"] for d in diags)
            energy = max(abs(d["energy_integral"] - e0) for d in diags) / abs(e0)
            values.update(exit_code=code, diagnostics=len(diags),
                          constraint_drift=drift, energy_change=energy)
            return {
                "exit_code": code == 0,
                "min_eps": all(d["min_eps"] > 0.0 for d in diags),
                "det_floor": all(d["min_abs_det_time_matrix"] > solver1d.DET_FLOOR
                                 for d in diags),
                "constraint_drift": drift <= self.sizes["drift_bound"],
                "energy_change": energy <= self.sizes["energy_bound"],
            }
        return [run_phase("cli.main", self.CHECKS, verdict)]


class Claims(Workload):
    """The four seeded suites plus the one-shot checks of criteria 04, 05, 07.

    The region map, which no criterion covers, is judged by the rule of
    ``vecf region-map``: every a1 = 4, a2 >= 4 cell is causal.
    """

    SIZES = {"full": {"factorization": 2000, "collapse": 500, "roots": 40,
                      "time_matrix": 1000, "divergence": (64, 128, 256, 512)},
             "smoke": {"factorization": 40, "collapse": 20, "roots": 2,
                       "time_matrix": 40, "divergence": (64, 128, 256, 512)}}
    SUITES = ("factorization", "collapse", "roots", "time_matrix")
    A2_LIST = (4.0, 5.0, 6.0, 8.0, 10.0)

    def setup(self, rng):
        self.suite_seeds = [int(s) for s in rng.integers(0, 2 ** 31, len(self.SUITES))]
        self.fields = equations.SinusoidalField(length=2.0 * np.pi)
        self.model = TransportModel(a1=4.0, a2=A2)

    def phases(self) -> list:
        phases = []
        for name, seed in zip(self.SUITES, self.suite_seeds):
            suite = getattr(verification, f"{name}_suite")
            n = self.sizes[name]
            kwargs = {"threads": 1} if name == "factorization" else {}
            phases.append(run_phase(
                f"{name}_suite", ("passed",),
                lambda values: {"passed": suite(samples=n, seed=seed, **kwargs).passed},
                samples=n))
        phases.append(run_phase("divergence_residual",
                                ("orders", "mutated_order", "amplification"),
                                self.divergence))
        phases.append(run_phase("causality_scan",
                                ("shear_inside", "sound_boundary", "sound_inside"),
                                self.causality))
        phases.append(run_phase("hyperbolicity_region_map", ("a1_4_row_causal",),
                                self.region_map))
        phases.append(run_phase("gevrey_index", ("indices",), self.gevrey))
        return phases

    def divergence(self, values) -> dict:
        resolutions = self.sizes["divergence"]
        reps = [equations.divergence_residual(self.fields, n, self.model)
                for n in resolutions]
        orders = [float(np.log2(a.max_discrepancy / b.max_discrepancy))
                  for a, b in zip(reps, reps[1:])]
        clean = reps[-1].max_discrepancy
        mut_fine = equations.divergence_residual(
            self.fields, resolutions[-1], self.model, mutation=("expansion_iso", 1.01))
        mut_coarse = equations.divergence_residual(
            self.fields, resolutions[-2], self.model, mutation=("expansion_iso", 1.01))
        mut_order = float(np.log2(mut_coarse.max_discrepancy / mut_fine.max_discrepancy))
        values.update(orders=orders, mutated_order=mut_order,
                      amplification=mut_fine.max_discrepancy / clean)
        return {"orders": all(3.7 <= o <= 4.3 for o in orders),
                "mutated_order": mut_order < 1.0,
                "amplification": mut_fine.max_discrepancy > 100.0 * clean}

    def causality(self, values) -> dict:
        rows = causality.causality_scan(self.A2_LIST, 10.0, n_u=41, n_theta=720)
        sound = {a2: max(r.smax_p3 for r in rows if r.a2 == a2) for a2 in self.A2_LIST}
        values.update(max_shear=max(r.smax_p2 for r in rows), max_sound=sound)
        return {"shear_inside": all(r.smax_p2 < 1.0 for r in rows),
                "sound_boundary": abs(sound[4.0] - 1.0) <= 1e-12,
                "sound_inside": all(s < 1.0 - 1e-12 for a2, s in sound.items()
                                    if a2 != 4.0)}

    def region_map(self, values) -> dict:
        cells = causality.hyperbolicity_region_map(np.linspace(1.0, 6.0, 11),
                                                   np.linspace(1.0, 12.0, 12))
        return {"a1_4_row_causal": all(
            c.label in ("causal-strict", "causal-boundary")
            for c in cells if abs(c.a1 - 4.0) < 1e-12 and c.a2 >= 4.0)}

    def gevrey(self, values) -> dict:
        fluid = characteristics.gevrey_index(characteristics.FLUID_FACTORS)
        coupled = characteristics.gevrey_index(characteristics.COUPLED_FACTORS)
        return {"indices": fluid == Fraction(7, 6) and coupled == Fraction(17, 16)}


WORKLOADS = {"dod": Dod, "evolve-wide": EvolveWide, "claims": Claims}
