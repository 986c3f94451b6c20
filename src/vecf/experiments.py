"""Empirical causality and convergence experiments on the 1+1D solver.

The domain-of-dependence test perturbs initial data with a compactly
supported bump placed strictly outside (or, for the positive control,
strictly inside) the backward characteristic cone of a probe event and
measures the induced difference at the probe across grid refinements.
Outside-cone influence is pure discretization artifact and must vanish
under refinement at roughly the scheme's order; inside-cone influence
converges to the physical nonzero limit.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, replace

import numpy as np

from .causality import cone_slopes
from .equations import ORDER_WINDOW, _resolution_ladder
from .solver1d import (SolverConfig, _fixed_point, _grid_v_max, _Helper, _may_fork,
                       bump_perturbation, evolve, gaussian_pulse, make_grid, shear_pulse)

FIELD_NAMES = ("u0", "u1", "u2", "u3", "eps")

# criterion 09's thresholds: every outside-cone ratio at least this, the
# outside order inside this range, the last two inside-cone differences
# within this fraction of each other, and the inside limit above this
# multiple of the last outside-cone difference
DOD_OUTSIDE_RATIO_MIN = 8.0
DOD_OUTSIDE_ORDER = (3.5, 5.5)
DOD_INSIDE_STABILITY = 0.1
DOD_INSIDE_OVER_OUTSIDE_MIN = 1e3
# criterion 09's sample, which `vecf dod-test` runs: the probe event
# (t, x), the bumps' amplitude and radius, the outside bump's clearance
# beyond the cone and the probe window, and the window's half-width
DOD_PROBE_T = 0.35
DOD_PROBE_X = 0.5
DOD_AMPLITUDE = 0.02
DOD_RADIUS = 0.14
DOD_MARGIN = 0.10
DOD_PROBE_WINDOW = 0.05
# the resolution ladders of criterion 09 and of criteria 08b and 08d, the
# defaults of `dod.resolutions` and `convergence.resolutions`
DOD_RESOLUTIONS = (128, 256, 512, 1024)
CONVERGENCE_RESOLUTIONS = (256, 512, 1024)
# the convergence study reports a field as exact ("order None") when either
# of its successive differences falls below this
ROUNDOFF_FLOOR = 1e-13
# the pulse-speed runs: a Gaussian pulse of this amplitude and width at the
# center of a periodic domain of this length
PULSE_LENGTH = 2.0
PULSE_AMPLITUDE = 0.05
PULSE_WIDTH = 0.1


@dataclass(frozen=True)
class DodPlacement:
    center: float
    radius: float
    amplitude: float
    inside: bool
    margin_cells: float      # clearance to the cone in coarsest-grid cells


@dataclass(frozen=True)
class DodReport:
    probe_t: float
    probe_x: float
    v_max: float
    cone_radius: float
    resolutions: tuple
    outside: DodPlacement
    inside: DodPlacement
    outside_diffs: tuple
    inside_diffs: tuple
    zero_amplitude_diff: float

    @property
    def outside_ratios(self) -> tuple:
        """Successive outside-cone difference ratios; NaN over a zero."""
        d = self.outside_diffs
        return tuple(a / b if b > 0.0 else np.nan for a, b in zip(d, d[1:]))

    @property
    def outside_order(self) -> float:
        """Geometric-mean order of the outside-cone influence; NaN if an end
        difference is zero."""
        d = self.outside_diffs
        if not (d[0] > 0.0 and d[-1] > 0.0):
            return np.nan
        return float(np.log2(d[0] / d[-1]) / (len(d) - 1))

    @property
    def inside_limit(self) -> float:
        return self.inside_diffs[-1]

    @property
    def inside_stable(self) -> bool:
        a, b = self.inside_diffs[-2], self.inside_diffs[-1]
        return abs(a - b) <= DOD_INSIDE_STABILITY * max(abs(a), abs(b))

    @property
    def passed(self) -> bool:
        """Criterion 09's verdict: outside influence converges away at about
        fourth order (every ratio >= 8), inside influence settles on a limit
        far above it, and a zero-amplitude bump changes nothing.  A NaN
        ratio or order fails it."""
        lo, hi = DOD_OUTSIDE_ORDER
        return (all(r >= DOD_OUTSIDE_RATIO_MIN for r in self.outside_ratios)
                and lo <= self.outside_order <= hi
                and self.inside_stable
                and (self.inside_limit
                     > DOD_INSIDE_OVER_OUTSIDE_MIN * self.outside_diffs[-1])
                and self.zero_amplitude_diff == 0.0)


def _probe_difference(base_v: np.ndarray, pert_v: np.ndarray, x: np.ndarray,
                      probe_x: float) -> float:
    mask = np.abs(x - probe_x) <= DOD_PROBE_WINDOW
    return float(np.abs((pert_v - base_v)[:, mask]).max())


def _run_ladder(fns) -> list:
    """The results of a ladder's independent jobs, in job order.

    fns take no argument and return results that pickle; a ladder lists
    them coarsest first, so the last is the heaviest and outweighs the
    others together.  Where there are two jobs or more and
    `solver1d._may_fork` allows (two CPUs or more in the affinity mask,
    os.fork, no other thread and no helper running), a `solver1d._Helper`
    runs every job but the last and sends their results, or the exception
    that stopped them, through a pipe, while this process runs the last.
    Both mark a helper as running, so no job splits its evolve
    (`solver1d._Split`).  Otherwise, and where a pipe or the fork fails
    (EAGAIN under a process limit, ENOMEM), the jobs run here one after
    another.

    Either way the first exception in job order is raised, as a serial run
    would raise it; a child's carries the child's traceback as its cause,
    and a child that dies without sending raises RuntimeError naming its
    signal or exit status.  No child outlives the call: on an exception of
    this process's own that is no Exception, KeyboardInterrupt for one,
    the child is killed and reaped.
    """
    if not (len(fns) >= 2 and _may_fork()):
        return [fn() for fn in fns]
    try:
        helper = _Helper("ladder worker", lambda rfd, wfd: _ladder_worker(fns[:-1], wfd))
    except OSError:
        return [fn() for fn in fns]
    try:
        own = None
        try:
            last = fns[-1]()
        except Exception as exc:
            own = exc
        data = b"".join(iter(lambda: os.read(helper.rfd, 1 << 16), b""))
        helper.wait()
    finally:
        helper.close()
    done, failure = pickle.loads(data)
    if failure is not None:
        exc, text = failure
        raise exc from RuntimeError(f"in the ladder worker:\n{text}")
    if own is not None:
        raise own
    return done + [last]


def _ladder_worker(fns, wfd: int) -> None:
    """`_run_ladder`'s child: fns' results, or the first exception and its
    traceback, as one pickle written to wfd."""
    done, failure = [], None
    try:
        for fn in fns:
            done.append(fn())
    except Exception as exc:
        import traceback
        failure = (exc, traceback.format_exc())
    data = memoryview(pickle.dumps((done, failure)))
    while data:
        data = data[os.write(wfd, data):]


def _member_finals(cfg: SolverConfig, ics) -> list:
    """Each member's final V: a Trajectory holds its initial data's lambdas,
    so only the arrays go through `_run_ladder`'s pipe."""
    return [traj.final for traj in evolve(cfg, ics=ics)]


def _final_and_drift(cfg: SolverConfig) -> tuple:
    traj = evolve(cfg)
    return traj.final, traj.drift_max


def dod_experiment(cfg: SolverConfig, probe_t: float, probe_x: float,
                   resolutions=DOD_RESOLUTIONS) -> DodReport:
    """Run the two-placement domain-of-dependence experiment.

    Criterion 09 probes (DOD_PROBE_T, DOD_PROBE_X); the bumps, of
    amplitude DOD_AMPLITUDE and radius DOD_RADIUS, sit at the probe point
    (inside) and DOD_MARGIN beyond the cone and the probe window (outside).
    Placement geometry is validated against the backward cone
    {|x - probe_x| <= v_max (probe_t - t)} with at least a two-cell margin
    on the coarsest grid.  Each bump's support must lie in [0, L), since
    `bump_perturbation` does not wrap; a bad placement raises ValueError.
    The probe "value" is the max-abs difference over the five fields
    within DOD_PROBE_WINDOW of the probe point, which keeps single-point
    node artifacts of the oscillatory precursor out of the measured ratios.

    Each resolution makes one ensemble evolve of the bumps, and on the
    first grid a zero-amplitude bump, whose difference must be exactly 0.
    The unperturbed base is stepped with them only when it is not an exact
    fixed point of the RK4 step (`solver1d._fixed_point`); otherwise its
    t = 0 state is the reference.  A constant state at eps0 = 1 is one; at
    eps0 = 0.7 the stencil leaves a round-off derivative (see `dx4`) and
    the base is stepped.  The bases are settled here, and the evolves run
    side by side on the CPUs the process may use (`_run_ladder`), with the
    serial run's results bit for bit; `taskset -c 0` runs them serially.
    """
    base_cfg = replace(cfg, t_end=probe_t)
    grid0 = make_grid(replace(base_cfg, n_cells=min(resolutions)))
    h0 = grid0.spacing
    v_max = _grid_v_max(grid0, cfg.transport)
    cone = v_max * probe_t

    radius = DOD_RADIUS
    out_center = probe_x + cone + radius + DOD_PROBE_WINDOW + DOD_MARGIN
    in_center = probe_x
    length = cfg.length
    for name, c, need_inside in (("outside", out_center, False), ("inside", in_center, True)):
        if c - radius < 0.0 or c + radius > length:
            raise ValueError(f"{name} bump support [{c - radius:.6g}, {c + radius:.6g}] "
                             f"leaves the domain [0, {length:.6g})")
        direct = abs(c - probe_x)
        wrapped = length - direct
        if need_inside:
            if direct + radius > cone - 2.0 * h0:
                raise ValueError(f"{name} bump support does not fit inside the cone")
        else:
            if min(direct, wrapped) - radius < cone + 2.0 * h0:
                raise ValueError(f"{name} bump support too close to the cone")
        if cone + radius + 2.0 * h0 > 0.5 * length:
            raise ValueError("cone exits the domain before the probe time")
    resolutions = _resolution_ladder(resolutions, 2)

    out_margin = (abs(out_center - probe_x) - radius - cone) / h0
    in_margin = (cone - (abs(in_center - probe_x) + radius)) / h0
    placements = {
        "outside": DodPlacement(out_center, radius, DOD_AMPLITUDE, False, out_margin),
        "inside": DodPlacement(in_center, radius, DOD_AMPLITUDE, True, in_margin),
    }

    # the bumps touch eps only, and at a1 = 4 the speed does not depend on
    # eps, so every member has the base's v_max and dt: one ensemble evolve
    # per resolution gives each member's solo result bitwise
    bumps = [bump_perturbation(cfg.ic, pl.amplitude, pl.center, pl.radius)
             for pl in placements.values()]
    null_ic = bump_perturbation(cfg.ic, 0.0, placements["outside"].center, radius)
    bases = [_fixed_point(replace(base_cfg, n_cells=n)) for n in resolutions]
    member_ics = [([cfg.ic] if base_v is None else []) + bumps
                  + ([null_ic] if k == 0 else []) for k, base_v in enumerate(bases)]
    finals = _run_ladder([
        lambda n_cfg=replace(base_cfg, n_cells=n), ics=ics: _member_finals(n_cfg, ics)
        for n, ics in zip(resolutions, member_ics)])
    diffs = {"outside": [], "inside": []}
    zero_diff = None
    for n, base_v, pert_vs in zip(resolutions, bases, finals):
        if base_v is None:
            base_v = pert_vs.pop(0)
        x = np.arange(n) * (cfg.length / n)
        for name, pert_v in zip(placements, pert_vs):
            diffs[name].append(_probe_difference(base_v, pert_v, x, probe_x))
        if zero_diff is None:
            zero_diff = _probe_difference(base_v, pert_vs[-1], x, probe_x)

    return DodReport(
        probe_t=probe_t, probe_x=probe_x, v_max=v_max, cone_radius=cone,
        resolutions=resolutions,
        outside=placements["outside"], inside=placements["inside"],
        outside_diffs=tuple(diffs["outside"]),
        inside_diffs=tuple(diffs["inside"]),
        zero_amplitude_diff=float(zero_diff),
    )


@dataclass(frozen=True)
class ConvergenceReport:
    resolutions: tuple
    errors_coarse: dict       # field -> |V_N - V_2N|_inf on the common grid
    errors_fine: dict         # field -> |V_2N - V_4N|_inf
    orders: dict              # field -> observed order, or None below round-off
    drift: dict               # resolution -> max constraint drift

    @property
    def observed_order(self) -> float | None:
        vals = [o for o in self.orders.values() if o is not None]
        return max(vals) if vals else None

    @property
    def passed(self) -> bool:
        """Criterion 08d: an observed order, and in ORDER_WINDOW."""
        order = self.observed_order
        return order is not None and ORDER_WINDOW[0] <= order <= ORDER_WINDOW[1]

    def drift_orders(self) -> list:
        ns = sorted(self.drift)
        return [float(np.log2(self.drift[ns[i]] / self.drift[ns[i + 1]]))
                for i in range(len(ns) - 1)]


def convergence_study(cfg: SolverConfig,
                      resolutions=CONVERGENCE_RESOLUTIONS) -> ConvergenceReport:
    """Richardson three-grid estimate of the observed order per field.

    Each resolution must double the previous one so grids nest.  Fields
    whose successive differences sit below ROUNDOFF_FLOOR are reported
    with order None ("exact" in the CLI rendering).  The evolves run side
    by side on the CPUs the process may use (`_run_ladder`), with the
    serial run's results bit for bit; `taskset -c 0` runs them serially.
    """
    resolutions = _resolution_ladder(resolutions, 3)
    results = _run_ladder([
        lambda n_cfg=replace(cfg, n_cells=n): _final_and_drift(n_cfg)
        for n in resolutions])
    runs = {n: final for n, (final, _) in zip(resolutions, results)}
    drift = {n: drift_max for n, (_, drift_max) in zip(resolutions, results)}
    n0, n1, n2 = resolutions[-3:]
    e1 = {}
    e2 = {}
    orders = {}
    for i, name in enumerate(FIELD_NAMES):
        d1 = float(np.abs(runs[n0][i] - runs[n1][i, ::2]).max())
        d2 = float(np.abs(runs[n1][i] - runs[n2][i, ::2]).max())
        e1[name], e2[name] = d1, d2
        if d1 < ROUNDOFF_FLOOR or d2 < ROUNDOFF_FLOOR:
            orders[name] = None
        else:
            orders[name] = float(np.log2(d1 / d2))
    return ConvergenceReport(resolutions=resolutions, errors_coarse=e1,
                             errors_fine=e2, orders=orders, drift=drift)


@dataclass(frozen=True)
class SpeedReport:
    family: str
    a2: float
    resolution: int
    expected_speed: float
    measured_speed: float
    t_first: float
    t_second: float

    @property
    def relative_error(self) -> float:
        return abs(self.measured_speed - self.expected_speed) / self.expected_speed


def _front_position(profile: np.ndarray, x: np.ndarray, center: float,
                    threshold: float) -> float:
    """Outermost right-of-center threshold crossing, clear of the wrap zone."""
    mask = (x > center) & (x <= center + 0.45 * (x[-1] + x[1]))
    xs = x[mask]
    above = np.nonzero(np.abs(profile[mask]) > threshold)[0]
    if above.size == 0:
        raise RuntimeError("no threshold crossing found")
    return float(xs[above[-1]])


def _peak_position(profile: np.ndarray, x: np.ndarray, center: float,
                   min_offset: float) -> float:
    mask = (x > center + min_offset) & (x <= center + 0.45 * (x[-1] + x[1]))
    return float(x[mask][np.argmax(np.abs(profile[mask]))])


def pulse_speed_experiment(family: str, a2: float, n_cells: int = 1024,
                           t_first: float = 0.3, t_second: float = 0.6) -> SpeedReport:
    """Measure a pulse propagation speed and compare with the cone prediction.

    The run is sampled at two times after the split pulses have separated
    from the stationary residue at the center; sound fronts are located by
    threshold crossing on eps, shear disturbances by the traveling peak of
    u^2.  Tracking between two snapshots removes the birth transient and
    the amplitude decay bias of a single absolute threshold.
    """
    from .constitutive import TransportModel
    center = PULSE_LENGTH / 2.0
    model = TransportModel(a2=a2)
    if family == "sound":
        ic = gaussian_pulse(amplitude=PULSE_AMPLITUDE, width=PULSE_WIDTH, center=center)
        component, tracker = 4, "front"
        baseline = 1.0
    elif family == "shear":
        ic = shear_pulse(amplitude=PULSE_AMPLITUDE, width=PULSE_WIDTH, center=center)
        component, tracker = 2, "peak"
        baseline = 0.0
    else:
        raise ValueError("family must be 'sound' or 'shear'")
    expected = float(cone_slopes(family, 0.0, 0.0, a2)[1])     # at rest
    cfg = SolverConfig(transport=model, n_cells=n_cells, length=PULSE_LENGTH,
                       t_end=t_second, ic=ic)
    traj = evolve(cfg, snapshot_times=[t_first, t_second])
    by_time = dict(zip(traj.times, traj.snapshots))
    ts = sorted(by_time)
    v1 = by_time[ts[-2]]
    v2 = by_time[ts[-1]]
    x = np.arange(n_cells) * (PULSE_LENGTH / n_cells)
    if tracker == "front":
        thr = 0.02 * PULSE_AMPLITUDE
        p1 = _front_position(v1[component] - baseline, x, center, thr)
        p2 = _front_position(v2[component] - baseline, x, center, thr)
    else:
        p1 = _peak_position(v1[component] - baseline, x, center, 0.05)
        p2 = _peak_position(v2[component] - baseline, x, center, 0.05)
    measured = (p2 - p1) / (ts[-1] - ts[-2])
    return SpeedReport(family=family, a2=a2, resolution=n_cells,
                       expected_speed=expected, measured_speed=float(measured),
                       t_first=float(ts[-2]), t_second=float(ts[-1]))
