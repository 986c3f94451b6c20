"""1+1D evolution of the flat-space viscous conformal fluid.

Five unknowns (u^0, u^1, u^2, u^3, eps) on a periodic grid, evolved as a
first-order-in-time system (V, W = dt V).  The second time derivative is
obtained by inverting the time-coefficient matrix a = B(e0, e0) cell by
cell:

    a dtW = -(2 B(e0, e1) dx W + B(e1, e1) dx dx V + B)

with B(e_a, e_c) the symbol's coefficient of xi_a xi_c, applied to the
derivative vectors without forming a block, and B the assembled first-order
terms.  The bracket is `equations.equation_rows` without its tt pair, the
rows that the divergence oracle (criterion 07) certifies; the tt pair
a dtW is the unknown.  a is inverted in closed form
(`equations.time_matrix_solve`), and its determinant comes out of the same
elimination.  All four velocity components are kept so transverse
(shear-family) pulses are representable; y and z derivatives vanish.

Spatial derivatives use the 4th-order centered five-point stencil, and the
second derivative is that stencil applied twice.  The composition is
deliberate: it gives the first and second derivative operators identical
modified wavenumbers, so the semi-discrete dispersion relation is the
continuum one evaluated at a real effective k.  With the narrow five-point
second-derivative stencil instead, the sawtooth mode decouples from the
mixed-derivative terms that the system's stability relies on and grows at a
grid-scale rate.

Normalization u.u = -1 is imposed only at t = 0 and its drift is monitored
every step; the drift converging away with resolution is itself a check of
constraint propagation.

Runs that differ only in their initial data evolve together as one
ensemble: a member axis sits before the cell axis, V and W are (5, B, N),
the stencils act on the last axis, and the pointwise layers see the cells
of every member as one flat batch.  A single run is the ensemble of one
member.

An evolve makes one `equations.Scratch` and every step reuses it.  The
stencils write dx V, dx W and dx dx V into it next to the stage input
(V, W), so the (t, x) jet (W, dx V) and the terms of the pairs tx and xx
are views of one buffer; the stage inputs and the RK4 sums are formed in
it in place; and the per-cell factors that the symbol and the time matrix
share, the equation rows and the solve write their values and
temporaries into it.  A step has the bits of the step that formed all of
these as fresh arrays (tests/reference.py).  The returned grid owns new
arrays, the only ones a warm step creates, and no stage calls BLAS.

A stage reads its input with a periodic halo of HALO = 4 cells on each
side, since dx dx V is the five-point stencil applied twice: it first runs
on the input padded by the halo, then on dx V, which reaches two cells
into the halo.  The serial run steps the whole grid as one part, whose
halo wraps onto itself.
An evolve of at least SPLIT_MIN_CELLS cells over all its members steps
each half of every member's cells in its own process, the evolve's one
and a forked helper, each pinned to its own CPU (`_Split`).  The state
and the edges of the stage inputs live in shared memory; the halves trade
one byte each way at the barrier after each stage's input (three a step)
and after the step's own checks (the fourth).  Each half forms every cell
of its own with the arithmetic of the serial run, so a split evolve has
the serial evolve's bits.  A half that fails a check reports it at the
next barrier, both stop, and the evolve replays that step serially from
the intact pre-step state, which raises the serial abort.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager, suppress
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from .causality import BOUNDARY_TOL, THETAS, _cone_extremes
from .characteristics import BATCH_VALUES, FLUID_FACTORS, cone_coefficients
from .constitutive import (SGN, TransportModel, _coefficients, complete_initial_data,
                           stress_tensor_fields, transport)
from .equations import (CellFactors, DegenerateTimeMatrix, Scratch, _stencil4, cell_factors,
                        dx4, equation_rows, time_matrix_solve)
from .symbol import det_time_matrix_closed_form


class SolverAbort(RuntimeError):
    """Evolution stopped: carries time, step index, and a state dump."""

    def __init__(self, message: str, t: float, step_index: int, grid: "FieldGrid"):
        super().__init__(f"{message} at t={t:.6g} (step {step_index})")
        self.message = message
        self.t = t
        self.step_index = step_index
        self.grid = grid

    def __reduce__(self):
        # pickle rebuilds an exception from its args, which hold only the
        # formatted line; a ladder job's abort crosses a pipe this way
        return type(self), (self.message, self.t, self.step_index, self.grid)


@dataclass(frozen=True)
class InitialData:
    """Pointwise initial data (eps0, eps1, v0, v1) as functions of x."""

    name: str
    eps0: callable
    eps1: callable
    v0: callable           # x -> (3, N)
    v1: callable

    def build(self, x: np.ndarray):
        u, dtu, eps, dteps = complete_initial_data(
            self.eps0(x), self.eps1(x), self.v0(x), self.v1(x))
        V = np.concatenate([u, eps[None]], axis=0)
        W = np.concatenate([dtu, dteps[None]], axis=0)
        return V, W


def constant_state(eps0: float = 1.0) -> InitialData:
    return InitialData(
        name="constant",
        eps0=lambda x: np.full_like(x, eps0),
        eps1=lambda x: np.zeros_like(x),
        v0=lambda x: np.zeros((3,) + x.shape),
        v1=lambda x: np.zeros((3,) + x.shape),
    )


def gaussian_pulse(amplitude: float = 0.05, width: float = 0.1,
                   center: float = 1.0, eps0: float = 1.0) -> InitialData:
    """Gaussian bump on eps over a rest background; excites the sound family."""
    def eps_fn(x):
        return eps0 + amplitude * np.exp(-((x - center) / width) ** 2)
    return InitialData(
        name="gaussian-eps-pulse",
        eps0=eps_fn,
        eps1=lambda x: np.zeros_like(x),
        v0=lambda x: np.zeros((3,) + x.shape),
        v1=lambda x: np.zeros((3,) + x.shape),
    )


def shear_pulse(amplitude: float = 0.05, width: float = 0.1,
                center: float = 1.0, eps0: float = 1.0) -> InitialData:
    """Gaussian bump on the transverse velocity u^2; excites the shear family."""
    def v0_fn(x):
        v = np.zeros((3,) + x.shape)
        v[1] = amplitude * np.exp(-((x - center) / width) ** 2)
        return v
    return InitialData(
        name="shear-pulse",
        eps0=lambda x: np.full_like(x, eps0),
        eps1=lambda x: np.zeros_like(x),
        v0=v0_fn,
        v1=lambda x: np.zeros((3,) + x.shape),
    )


def bump_perturbation(base: InitialData, amplitude: float, center: float,
                      radius: float) -> InitialData:
    """Add a compactly supported (1 - s^2)^4 bump to eps0, s = (x - center) / radius.

    The polynomial profile keeps the perturbation's spectral tail tame; the
    domain-of-dependence harness relies on that so the outside-cone signal
    is dominated by resolvable truncation error rather than by under-resolved
    edge content.
    """
    def eps_fn(x):
        s = (x - center) / radius
        bump = np.where(np.abs(s) < 1.0, (1.0 - np.minimum(s * s, 1.0)) ** 4, 0.0)
        return base.eps0(x) + amplitude * bump
    return InitialData(name=f"{base.name}+bump", eps0=eps_fn, eps1=base.eps1,
                       v0=base.v0, v1=base.v1)


# the largest Courant number dt v_max / h a run may reach: SolverConfig holds
# cfl to it at t = 0, and evolve checks it again at every diagnostic
COURANT_MAX = 1.0
# the most RK4 steps one evolve may take, far above any run of the package;
# a t_end that asks for more is a configuration error
MAX_STEPS = 10 ** 7


@dataclass(frozen=True)
class SolverConfig:
    """Settings of one 1+1D run.

    cfl is the Courant number dt v_max / h at t = 0: evolve fixes dt from
    the maximal characteristic speed of the initial data.  v_max grows with
    the flow speed |w|, so a run may exceed cfl as its flow develops (by up
    to 0.5% in the acceptance runs); COURANT_MAX bounds the Courant number
    for the whole run, and evolve aborts when a diagnostic finds it passed.
    """

    transport: TransportModel = TransportModel()
    n_cells: int = 512
    length: float = 2.0
    cfl: float = 0.25
    t_end: float = 0.5
    ic: InitialData = field(default_factory=constant_state)
    output_every: int = 0          # 0: first/last snapshot only
    # accepted for perfbench/workloads.py, which passes 0.0; ROADMAP item 1
    # drops it together with factorization_suite's threads
    filter_strength: InitVar[float] = 0.0

    def __post_init__(self, filter_strength):
        if filter_strength != 0.0:
            raise ValueError("filter_strength must be 0: the solver has no filter")
        if not 0.0 < self.cfl <= COURANT_MAX:
            raise ValueError(f"cfl must lie in (0, {COURANT_MAX:g}]")
        if not abs(self.transport.a1 - 4.0) <= 1e-12:
            raise ValueError("the evolution system requires a1 = 4")
        if not self.transport.a2 >= 4.0:
            raise ValueError("the evolution system requires a2 >= 4")
        if self.n_cells < 16:
            raise ValueError("grid too small")
        if not 0.0 < self.length < math.inf:
            raise ValueError("length must be positive and finite")
        if not 0.0 < self.t_end < math.inf:
            raise ValueError("t_end must be positive and finite")
        if not self.output_every >= 0:
            raise ValueError("output_every must be >= 0")


@dataclass
class FieldGrid:
    """Periodic grid state: V = (u^0..u^3, eps), W = dt V.

    V and W are (5, N) for one run, or (5, B, N) for an ensemble of B
    members; the cells are always on the last axis.
    """

    n_cells: int
    length: float
    V: np.ndarray
    W: np.ndarray
    t: float = 0.0

    @property
    def spacing(self) -> float:
        return self.length / self.n_cells

    def constraint_drift(self) -> np.ndarray:
        """max |u.u + 1| over the cells of each member, (B,)."""
        u = self.V[:4].reshape(4, -1)
        uu = np.einsum('a,an,an->n', SGN, u, u)
        return np.abs(uu + 1.0).reshape(-1, self.n_cells).max(axis=1)

    def members(self) -> list:
        """The (5, N) grid of each member, viewing this grid's arrays."""
        n = self.n_cells
        V, W = self.V.reshape(5, -1, n), self.W.reshape(5, -1, n)
        return [FieldGrid(n_cells=n, length=self.length, V=V[:, b], W=W[:, b],
                          t=self.t) for b in range(V.shape[1])]


@dataclass(frozen=True)
class Diagnostics:
    t: float
    constraint_drift: float
    min_eps: float
    energy_integral: float     # integral of T^{00} dx, conserved up to truncation error
    momentum_integral: float   # integral of T^{01} dx, conserved up to truncation error
    min_abs_det_time_matrix: float
    det_shortfall_rel: float   # max over cells of (closed-form - |det|)/closed-form,
    # det from the solver's elimination; the closed form assumes normalized
    # u, so the shortfall rides on the constraint drift and refines away with it


@dataclass
class Trajectory:
    config: SolverConfig
    times: list
    snapshots: list           # V arrays
    diagnostics: list
    v_max: float              # the speed dt was set from, shared by an ensemble
    dt: float
    drift_max: float          # max over every step, not just output steps

    @property
    def final(self) -> np.ndarray:
        return self.snapshots[-1]


DET_FLOOR = 1e-10
# a state whose values overflow or turn invalid is reported by the checks
# of evolve (finite values, eps > 0, the det floor), not by floating-point
# warnings: each step, diagnostic and t = 0 check runs under this errstate
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


def _members(bad: np.ndarray) -> str:
    """' in member i, j' naming the flagged members of an ensemble; '' for one."""
    if bad.size == 1:
        return ""
    return " in member " + ", ".join(str(b) for b in np.flatnonzero(bad))


def _eps_lost(V: np.ndarray) -> np.ndarray:
    """Whether eps <= 0 at some cell, for each member of V (5, N) or (5, B, N);
    every cell is tested, so a NaN elsewhere in a member hides none."""
    return (V[4] <= 0.0).reshape(-1, V.shape[-1]).any(axis=1)


def _not_finite(grid: FieldGrid) -> np.ndarray:
    """Whether some value of V or W is not finite, for each member."""
    return ~(np.isfinite(grid.V).all(axis=(0, -1)) & np.isfinite(grid.W).all(axis=(0, -1)))


# the pairs of the stage's principal part: tx and xx (tt is the unknown)
_PAIRS = ((0, 1), (1, 1))
# the cells a stage reads beyond each end of the cells it forms: dx dx V
# is the five-point stencil applied twice
HALO = 4


def _rhs(s: np.ndarray, left: np.ndarray, right: np.ndarray, h: float,
         model: TransportModel, work: Scratch) -> np.ndarray:
    """dt W of a stage input (V, W) = (s[0], s[1]) on a part's cells of one
    run (5, m) or of an ensemble (5, B, m), among work's temporaries; dt V
    is W.

    s is a stage buffer (5,) + V.shape, and left and right (2,) + (5, B,
    HALO) are the stage input's HALO cells before and after the part,
    periodic: for a part that spans the grid, s[:2]'s own last and first
    cells (`_own_halos`).  The input padded with them gives dx V on the
    part's cells and two beyond each end, and dx W; dx V there gives
    dx dx V.  dx V, dx W and dx dx V go to s[2:5], and dx W is doubled
    there: s[1:3] is then the (t, x) jet (W, dx V) of d_a (u, eps), and
    s[3:5] the terms of the pairs tx and xx (`equations.principal_terms`).
    Every pointwise layer gets the cells of all members as one flat (5,
    B m) batch, so each cell's arithmetic is the same as in a run of its
    member alone, and writes its temporaries into work.
    """
    V = s[0]
    m = V.shape[-1]
    # one reduction passes eps > 0 at every cell; else (a NaN too) the scan decides
    if not V[4].min() > 0.0 and (bad := _eps_lost(V)).any():
        raise ValueError("energy density lost positivity inside a stage" + _members(bad))
    # the stencils run along the padded rows laid end to end, one contiguous
    # line: a value that straddles two rows is never read
    pad, ext, tmp = work.temps(*[(2,) + V.shape[:-1] + (m + 2 * HALO,)] * 3)
    pad[..., :HALO] = left
    pad[..., HALO:-HALO] = s[:2]
    pad[..., -HALO:] = right
    p, e, t = pad.reshape(-1), ext.reshape(-1), tmp.reshape(-1)
    _stencil4(p[:-4], p[1:-3], p[3:-1], p[4:], h, e[:-4], t[:-4])
    s[2:4] = ext[..., 2:m + 2]
    p, e = ext[0].reshape(-1), pad[0].reshape(-1)     # dx V's rows; pad[0] is free
    _stencil4(p[:-4], p[1:-3], p[3:-1], p[4:], h, e[:-4], t[:p.size - 4])
    s[4] = pad[0, ..., :m]
    s[3] *= 2.0
    flat = s.reshape(5, 5, -1)
    u, eps, jet = flat[0, :4], flat[0, 4], flat[1:3]
    f = cell_factors(eps, _coefficients(eps, model, work), work)
    rows = equation_rows(u, jet[:, :4], eps, jet[:, 4], _PAIRS, flat[3:], model, f,
                         work=work)
    return _solve_time_matrix(u, f, np.negative(rows, rows), m, work).reshape(V.shape)


def _own_halos(s: np.ndarray) -> tuple:
    """The halos of a stage input that spans the grid: it wraps onto itself."""
    return s[:2, ..., -HALO:], s[:2, ..., :HALO]


def _solve_time_matrix(u, f: CellFactors, rhs, n_cells: int, work: Scratch | None = None):
    """`time_matrix_solve` with the DET_FLOOR guard, on the flat cells of
    members of n_cells cells each; a degenerate cell raises ValueError
    naming the members it lies in."""
    try:
        return time_matrix_solve(u, f, rhs, det_floor=DET_FLOOR, work=work)[0]
    except DegenerateTimeMatrix as exc:
        bad = exc.cells.reshape(-1, n_cells).any(axis=1)
        raise ValueError(str(exc) + _members(bad)) from None


def _check_initial(grid: FieldGrid, model: TransportModel) -> None:
    """Raise ValueError unless the t = 0 state can be stepped.

    Every value of V and W must be finite, and the time matrix's det must
    be finite and above DET_FLOOR at every cell.  A det that overflows is
    what this detects, so its overflow raises no floating-point warning.
    """
    bad = _not_finite(grid)
    if bad.any():
        raise ValueError("non-finite field values" + _members(bad))
    v = grid.V.reshape(5, -1)
    with np.errstate(**_QUIET):
        f = cell_factors(v[4], transport(v[4], model))
        _solve_time_matrix(v[:4], f, None, grid.n_cells)


def step(grid: FieldGrid, cfg: SolverConfig, dt: float,
         work: Scratch | None = None) -> FieldGrid:
    """One classical RK4 step.

    Every stage asserts |det a| > DET_FLOOR at every cell before it divides
    by a pivot of a, and raises ValueError otherwise; in the admissible
    regime the closed-form value keeps the determinant far above the floor.
    The step runs under _QUIET.

    work holds the step's arrays and temporaries; evolve passes one to all
    its steps, and a step makes its own when None.  The stage inputs and
    the sums ((k1 + 2 k2) + 2 k3) + k4 are formed in it, each in the order
    of the textbook expressions, so a step has their bits.  The returned
    grid owns new arrays, and grid is left as it was: nothing of work leaks
    out.

    A split evolve's halves pass their `_Half` as work: the step then forms
    only that half's cells of grid, whose arrays are the shared state, and
    trades the stage inputs' halos with the other half.  It writes the new
    state into the shared arrays, and returns them as its grid.
    """
    h = grid.spacing
    model = cfg.transport
    work = Scratch() if work is None else work
    part = work if isinstance(work, _Half) else None
    cells = slice(None) if part is None else part.cells
    V, W = grid.V[..., cells], grid.W[..., cells]
    s = work.take("stage", (5,) + V.shape)
    acc_v, acc_w = work.take("rk4", (2,) + V.shape)
    halos = (lambda s, stage: _own_halos(s)) if part is None else part.halos
    new = None if part is None else part.vw[1 - part.a]
    half = 0.5 * dt
    with np.errstate(**_QUIET):
        np.copyto(s[0], V)
        np.copyto(s[1], W)
        # stage k's dt W is in work until the next stage: it is used first
        kw = _rhs(s, *halos(s, 1), h, model, work)      # k1 = (W, kw)
        np.copyto(acc_w, kw)
        np.add(V, np.multiply(W, half, out=s[0]), out=s[0])
        np.add(W, np.multiply(kw, half, out=s[1]), out=s[1])
        kw = _rhs(s, *halos(s, 2), h, model, work)      # k2 = (s[1], kw)
        np.add(W, np.multiply(s[1], 2.0, out=acc_v), out=acc_v)
        np.add(V, np.multiply(s[1], half, out=s[0]), out=s[0])
        np.add(W, np.multiply(kw, half, out=s[1]), out=s[1])
        acc_w += np.multiply(kw, 2.0, out=kw)
        kw = _rhs(s, *halos(s, 3), h, model, work)      # k3 = (s[1], kw)
        np.add(V, np.multiply(s[1], dt, out=s[0]), out=s[0])
        acc_v += np.multiply(s[1], 2.0, out=s[1])
        np.add(W, np.multiply(kw, dt, out=s[1]), out=s[1])
        acc_w += np.multiply(kw, 2.0, out=kw)
        kw = _rhs(s, *halos(s, 4), h, model, work)      # k4 = (s[1], kw)
        acc_v += s[1]
        acc_w += kw
        Vn = np.add(V, np.multiply(acc_v, dt / 6.0, out=acc_v),
                    out=None if new is None else new[0][..., cells])
        Wn = np.add(W, np.multiply(acc_w, dt / 6.0, out=acc_w),
                    out=None if new is None else new[1][..., cells])
    if new is not None:
        Vn, Wn = new
    return FieldGrid(n_cells=grid.n_cells, length=grid.length, V=Vn, W=Wn,
                     t=grid.t + dt)


def make_grid(cfg: SolverConfig, ics=None) -> FieldGrid:
    """The grid at t = 0: cfg.ic on (5, N), or ics stacked on (5, B, N)."""
    n = cfg.n_cells
    x = np.arange(n) * (cfg.length / n)
    if ics is None:
        V, W = cfg.ic.build(x)
    else:
        V, W = (np.stack(f, axis=1) for f in zip(*(ic.build(x) for ic in ics)))
    bad = _eps_lost(V)
    if bad.any():
        raise ValueError("initial data drives eps non-positive" + _members(bad))
    return FieldGrid(n_cells=n, length=cfg.length, V=V, W=W, t=0.0)


def _fixed_point(cfg: SolverConfig) -> np.ndarray | None:
    """cfg's V at t = 0 if it is an exact fixed point of `step`, else None.

    It is one when W and _rhs's dt W are zero at every cell: every RK4
    stage's input is then the state itself, so each step returns V bit for
    bit, up to the sign of a zero, and W stays zero.  A grid that make_grid,
    _check_initial or _rhs rejects is not one; the check runs first, so
    _rhs never meets a det that overflows.
    """
    try:
        grid = make_grid(cfg)
        _check_initial(grid, cfg.transport)
        work = Scratch()
        s = work.take("stage", (5,) + grid.V.shape)
        s[0], s[1] = grid.V, grid.W
        with np.errstate(**_QUIET):
            dtW = _rhs(s, *_own_halos(s), grid.spacing, cfg.transport, work)
    except ValueError:
        return None
    return None if grid.W.any() or dtW.any() else grid.V


def _grid_v_max(grid: FieldGrid, model: TransportModel) -> float:
    """CFL speed: the largest |slope| of the fluid cones at the fastest cell.

    At a1 = 4 the slope extrema grow with |w| and sit on the axis, so the
    fastest cell bounds the grid, every member of an ensemble included.
    Its three cones take one call of the scan's kernel,
    `causality._cone_extremes`, over the scan's angles `causality.THETAS`,
    so the speed has the bits of the scan's maximum over angles: where the
    sound cone is the light cone to rounding (a2 within a few ulps of 4) an
    angle off the axis can round one ulp above it.  Raises ValueError where
    the speed is NaN or exceeds 1 + BOUNDARY_TOL.
    """
    w = grid.V.reshape(5, -1)[1:4]
    fastest = np.array(w[:, int(np.argmax(np.einsum('in,in->n', w, w)))])
    u2 = float(fastest @ fastest)
    # np.max keeps a NaN wherever it stands
    alpha, beta = zip(*(cone_coefficients(f, model.a2) for f in FLUID_FACTORS.families))
    v_max = float(np.max(_cone_extremes(alpha, beta, [u2], THETAS)[0]))
    if not v_max <= 1.0 + BOUNDARY_TOL:
        raise ValueError(f"state is not causal: fluid speed {v_max!r} at |w|^2 = {u2!r}")
    return v_max


def _check_courant(grid: FieldGrid, model: TransportModel, dt: float,
                   step_index: int) -> None:
    """Abort when the current v_max pushes dt v_max / h past COURANT_MAX.

    dt is fixed from v_max at t = 0, and v_max grows with the flow speed
    |w|, so the Courant number of a run drifts upward as the flow develops.
    """
    try:
        v_max = _grid_v_max(grid, model)
    except ValueError as exc:          # the state left the causal regime
        raise SolverAbort(str(exc), grid.t, step_index, grid) from exc
    courant = dt * v_max / grid.spacing
    if courant > COURANT_MAX:
        raise SolverAbort(f"CFL violated: dt v_max / h = {courant:.6g} > "
                          f"{COURANT_MAX:g} with v_max = {v_max:.6g}",
                          grid.t, step_index, grid)


def _diagnose(grid: FieldGrid, model: TransportModel, work: Scratch | None = None) -> Diagnostics:
    """Diagnostics of a one-member grid.

    evolve diagnoses an ensemble one member at a time, with the Scratch of
    its steps: diagnostics run only at the output cadence, and their
    temporaries on top of the steps' would set the run's peak memory.
    Only the stress tensor's row 0 is built, from the (t, x) jet (W, dx V):
    it holds T^{00} and T^{01}.  It is built on chunks of cells whose
    (4, 4, cells) temporaries hold at most BATCH_VALUES values, each of at
    least two cells, so every cell has the bits of the whole grid's row.
    Runs under _QUIET.
    """
    n = grid.n_cells
    u, eps = grid.V[:4], grid.V[4]
    jet = np.stack([grid.W, dx4(grid.V, grid.spacing, work=work)])   # the (t, x) rows
    chunks = -(-n // max(2, BATCH_VALUES // 16))
    t0_dn = np.empty((4, n))
    with np.errstate(**_QUIET):
        for sl in (slice(i * n // chunks, (i + 1) * n // chunks) for i in range(chunks)):
            t0_dn[:, sl] = stress_tensor_fields(u[:, sl], jet[:, :4, sl], eps[sl], jet[:, 4, sl],
                                                model, rows=(0,))[0]
        coeffs = transport(eps, model)
        _, det = time_matrix_solve(u, cell_factors(eps, coeffs, work), work=work)
        dets = np.abs(det)
        w2 = np.einsum('in,in->n', u[1:], u[1:])
        closed = det_time_matrix_closed_form(coeffs[0], eps, w2, model.a2)
        shortfall = (closed - dets) / closed
    t00_up = t0_dn[0]                      # T^{00} = g^{0a} g^{0b} T_ab = T_00
    t01_up = -t0_dn[1]                     # T^{01} = g^{00} g^{11} T_01
    (drift,) = grid.constraint_drift()
    return Diagnostics(
        t=grid.t,
        constraint_drift=float(drift),
        min_eps=float(eps.min()),
        energy_integral=float(t00_up.sum() * grid.spacing),
        momentum_integral=float(t01_up.sum() * grid.spacing),
        min_abs_det_time_matrix=float(dets.min()),
        det_shortfall_rel=float(shortfall.max()),
    )


# the fewest cells, over all members, of an evolve that splits its cells
# over two processes.  The split's median time over the serial run's, for
# a 55-step evolve on 2 vCPUs (two rounds of 6 pairs, x86-64, Python
# 3.11.7, numpy 2.4.6): 0.92 and 1.00 at 1024 cells, 0.94 and 0.85 at
# 2048, 0.66 and 0.65 at 4096, 0.67 and 0.63 at 8192
SPLIT_MIN_CELLS = 4096
# whether a helper forked by this process, or by the one that forked it,
# is running: a process with one steps serially (`_may_fork`)
_helper = False


def _may_fork() -> bool:
    """Whether this process may fork a helper: os.fork exists, its affinity
    mask holds two CPUs or more, no other thread runs (a forked child holds
    only the calling thread), and no helper is running.  A resolution
    ladder's forked run and a split evolve both read it."""
    import threading
    return (not _helper and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1)


class _Helper:
    """A forked helper, the one of a resolution ladder or a split evolve,
    and a pipe each way to it; rfd and wfd are this process's ends.  It
    runs child(rfd, wfd) on its own ends and exits 0, or 1 if that raises,
    never printing; `_helper` is set in both processes until close().  A
    pipe or fork that fails raises OSError, every pipe closed.  wait()
    reaps it and raises RuntimeError naming its signal or nonzero status;
    close() kills and reaps it if it runs, and closes the pipes.
    """

    def __init__(self, name: str, child):
        global _helper
        self.name, self.prior = name, _helper
        _helper = True
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except BaseException:
            for fd in fds:
                os.close(fd)
            _helper = self.prior
            raise
        if pid == 0:
            status = 1
            try:
                os.close(fds[0])
                os.close(fds[3])
                child(fds[2], fds[1])
                status = 0
            finally:
                os._exit(status)
        os.close(fds[1])
        os.close(fds[2])
        self.pid, self.rfd, self.wfd = pid, fds[0], fds[3]

    def wait(self) -> None:
        import signal
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        if code != 0:
            end = (f"was killed by {signal.Signals(-code).name}" if code < 0
                   else f"exited with status {code}")
            raise RuntimeError(f"{self.name} {end}") from None

    def close(self) -> None:
        global _helper
        if self.pid is not None:
            import signal
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        os.close(self.rfd)
        os.close(self.wfd)
        _helper = self.prior


def _advance(grid: FieldGrid, cfg: SolverConfig, dt: float, i: int,
             work: Scratch) -> FieldGrid:
    """Step i of evolve and the checks after it; a failed check raises the
    SolverAbort of step i, with the grid before the step for a check
    inside it."""
    try:
        new = step(grid, cfg, dt, work)
    except ValueError as exc:
        raise SolverAbort(str(exc), grid.t, i, grid) from exc
    bad = _not_finite(new)
    if bad.any():
        raise SolverAbort("non-finite field values" + _members(bad), new.t, i, new)
    bad = _eps_lost(new.V)
    if bad.any():
        raise SolverAbort("energy density reached zero" + _members(bad), new.t, i, new)
    return new


class _Serial:
    """evolve's steps, in this process: advance(i) takes step i and returns
    each member's constraint drift after it, current() is the grid."""

    def __init__(self, grid: FieldGrid, cfg: SolverConfig, dt: float):
        self.grid, self.cfg, self.dt = grid, cfg, dt
        self.work = Scratch()

    def advance(self, i: int) -> np.ndarray:
        self.grid = _advance(self.grid, self.cfg, self.dt, i, self.work)
        return self.grid.constraint_drift()

    def current(self) -> FieldGrid:
        return self.grid

    def close(self) -> None:
        pass


class _Stop(Exception):
    """The other half of a split evolve failed a check, or is gone."""


class _Half(Scratch):
    """One process's half of a split evolve: its Scratch, its cells and the
    buffers the two halves share.

    Half 0 steps the first n // 2 cells of each member, half 1 the rest.
    vw (2, 2) + V.shape holds the state (V, W), double-buffered: a step
    reads vw[a] and writes vw[1 - a].  edges (2, 2, 2, 2) + (5, B, HALO)
    holds, for stage inputs of alternating parity, each half's first and
    last HALO cells of (V, W); drift (2, B) each half's constraint drift
    per member after a step.  No half writes a buffer that the other may
    still read, so one barrier per stage input suffices.
    """

    def __init__(self, index: int, vw, edges, drift, rfd: int, wfd: int):
        super().__init__()
        n = vw.shape[-1]
        lo, hi = (0, n // 2) if index == 0 else (n // 2, n)
        self.index, self.cells = index, slice(lo, hi)
        # the other half's HALO cells before and after this one's, periodic
        self.left = slice((lo - HALO) % n, (lo - HALO) % n + HALO)
        self.right = slice(hi % n, hi % n + HALO)
        self.vw, self.edges, self.drift = vw, edges, drift
        self.rfd, self.wfd = rfd, wfd
        self.a = 0

    def barrier(self, ok: bool = True) -> None:
        """Send the other half '.', or '!' when this half failed a check,
        and read its byte; raise _Stop unless both sent '.'."""
        try:
            os.write(self.wfd, b"." if ok else b"!")
            got = os.read(self.rfd, 1)
        except OSError:                # the other process is gone
            got = b""
        if not (ok and got == b"."):
            raise _Stop

    def halos(self, s: np.ndarray, stage: int) -> tuple:
        """The halos of the stage input (s[0], s[1]) on this half's cells: at
        stage 1 the state's, later ones published and read at a barrier."""
        if stage == 1:
            src = self.vw[self.a]
            return src[..., self.left], src[..., self.right]
        edges = self.edges[stage % 2]
        edges[self.index, 0] = s[:2, ..., :HALO]
        edges[self.index, 1] = s[:2, ..., -HALO:]
        self.barrier()
        other = edges[1 - self.index]
        return other[1], other[0]

    def advance(self, grid: FieldGrid, cfg: SolverConfig, dt: float) -> FieldGrid:
        """Step this half of grid, the state vw[a], and check its cells after
        the step; the fourth barrier of the step reports the checks."""
        try:
            new = step(grid, cfg, dt, self)
            cells = self.cells
            mine = FieldGrid(n_cells=cells.stop - cells.start, length=grid.length,
                             V=new.V[..., cells], W=new.W[..., cells])
            ok = not (_not_finite(mine).any() or _eps_lost(mine.V).any())
            if ok:
                self.drift[self.index] = mine.constraint_drift()
        except ValueError:
            ok = False
        self.barrier(ok)
        self.a = 1 - self.a
        return new


def _shared(shape: tuple) -> np.ndarray:
    """A float array in anonymous shared memory: a child forked after it is
    made reads and writes the same values."""
    import mmap
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=float).reshape(shape)


class _Split:
    """evolve's steps split over this process and a forked `_Helper`, each
    pinned to its own CPU of the affinity mask and stepping one half of
    every member's cells (`_Half`); the interface of `_Serial`.

    Raises OSError, having forked nothing, where the pipes, the fork or
    pinning this process fail.  A step that either half's checks fail is
    replayed here serially from the intact pre-step state, and raises the
    serial SolverAbort; a replay that passes, or a helper that dies,
    raises RuntimeError.  close() kills and reaps the helper, if it runs,
    and restores the affinity mask.
    """

    def __init__(self, grid: FieldGrid, cfg: SolverConfig, dt: float, n_steps: int):
        shape = grid.V.shape
        vw = _shared((2, 2) + shape)
        edges = _shared((2, 2, 2, 2) + shape[:-1] + (HALO,))
        drift = _shared((2, grid.V[0, ..., 0].size))
        vw[0, 0], vw[0, 1] = grid.V, grid.W
        self.grid = FieldGrid(n_cells=grid.n_cells, length=grid.length, V=vw[0, 0],
                              W=vw[0, 1], t=grid.t)
        self.cfg, self.dt = cfg, dt
        self.mask = os.sched_getaffinity(0)
        cpus = sorted(self.mask)
        os.sched_setaffinity(0, {cpus[0]})

        def child(rfd: int, wfd: int) -> None:
            with suppress(OSError):            # unpinned, it keeps the same bits
                os.sched_setaffinity(0, {cpus[1]})
            half, grid = _Half(1, vw, edges, drift, rfd, wfd), self.grid
            with suppress(_Stop):
                for _ in range(n_steps):
                    grid = half.advance(grid, cfg, dt)
        try:
            self.helper = _Helper("split evolve helper", child)
        except BaseException:
            self._unpin()
            raise
        self.work = _Half(0, vw, edges, drift, self.helper.rfd, self.helper.wfd)

    def advance(self, i: int) -> np.ndarray:
        try:
            self.grid = self.work.advance(self.grid, self.cfg, self.dt)
        except _Stop:
            self.helper.wait()
            _advance(self.current(), self.cfg, self.dt, i, Scratch())
            raise RuntimeError(f"step {i} failed a check of the split evolve "
                               "that its serial replay passes") from None
        return np.maximum(*self.work.drift)

    def current(self) -> FieldGrid:
        grid = self.grid
        return FieldGrid(n_cells=grid.n_cells, length=grid.length, V=grid.V.copy(),
                         W=grid.W.copy(), t=grid.t)

    def _unpin(self) -> None:
        with suppress(OSError):
            os.sched_setaffinity(0, self.mask)

    def close(self) -> None:
        self.helper.close()
        self._unpin()


@contextmanager
def _stepper(grid: FieldGrid, cfg: SolverConfig, dt: float, n_steps: int):
    """evolve's stepper: `_Split` where the grid holds SPLIT_MIN_CELLS cells
    or more, `_may_fork` allows and the split starts, else `_Serial`."""
    run = None
    if grid.V[0].size >= SPLIT_MIN_CELLS and _may_fork():
        with suppress(OSError):
            run = _Split(grid, cfg, dt, n_steps)
    run = _Serial(grid, cfg, dt) if run is None else run
    try:
        yield run
    finally:
        run.close()


def evolve(cfg: SolverConfig, snapshot_times=None, ics=None):
    """Run to t_end; abort with a state dump on NaN, non-positive eps, or a
    Courant number above COURANT_MAX at a diagnostic.  A t = 0 state that
    `_check_initial` rejects aborts at step 0, before any diagnostic.

    dt is cfl * h / v_max rounded so t_end is hit exactly; snapshots are
    stored at the requested times (rounded to steps), plus first and last.
    A run that needs more than MAX_STEPS steps raises ValueError before
    stepping.

    Without ics this is one run of cfg and returns its Trajectory.  With
    ics, a sequence of InitialData, it runs cfg once with each as its
    initial data, all together on one (5, B, N) grid, and returns one
    Trajectory per member.  The members share dt, set from the largest
    v_max among them, so a member's results equal its solo run bitwise
    when its own v_max is that largest one.  At a1 = 4 the speed does not
    depend on eps, so members that differ only in eps always qualify.  An
    abort for non-positive eps, non-finite values or a degenerate time
    matrix names the members it concerns.

    A grid of SPLIT_MIN_CELLS cells or more over all members steps each
    half of its cells in its own process (`_Split`) where `_may_fork`
    allows: this one and a forked helper, each pinned to its own CPU.  The
    halves read each stage input's HALO cells beyond their own from the
    other half at a barrier, three a step, and report their checks after
    the step at a fourth.  A check that fails in either half stops both,
    and the step is replayed here serially from the pre-step state, so an
    abort has the serial message, t, step index and grid.  The Courant
    check, the diagnostics and the snapshots run here on the whole grid.
    The results, aborts included, are the serial run's bit for bit, and
    own their arrays; no helper outlives the call.
    """
    member_ics = [cfg.ic] if ics is None else list(ics)
    grid = make_grid(cfg, member_ics)
    model = cfg.transport
    try:
        _check_initial(grid, model)
    except ValueError as exc:
        raise SolverAbort(str(exc), grid.t, 0, grid) from exc
    v_max = _grid_v_max(grid, model)
    h = grid.spacing
    dt_cfl = cfg.cfl * h / v_max
    steps = np.ceil(cfg.t_end / dt_cfl)
    if not steps <= MAX_STEPS:
        raise ValueError(f"t_end = {cfg.t_end:g} needs {steps:g} steps of dt = {dt_cfl:.6g}; "
                         f"the most allowed is {MAX_STEPS:g}")
    n_steps = max(1, int(steps))
    dt = cfg.t_end / n_steps

    want = set()
    if snapshot_times is not None:
        want = {min(n_steps, max(0, int(round(t / dt)))) for t in snapshot_times}
    times = [0.0]
    snaps = [grid.V.copy()]
    drift_max = grid.constraint_drift()
    cadence = cfg.output_every if cfg.output_every > 0 else n_steps

    with _stepper(grid, cfg, dt, n_steps) as run:
        diags = [[_diagnose(m, model, run.work) for m in grid.members()]]
        for i in range(1, n_steps + 1):
            drift_max = np.maximum(drift_max, run.advance(i))
            if i % cadence == 0 or i == n_steps or i in want:
                grid = run.current()
                _check_courant(grid, model, dt, i)
                diags.append([_diagnose(m, model, run.work) for m in grid.members()])
                if i in want or i == n_steps:
                    times.append(grid.t)
                    snaps.append(grid.V.copy())
    trajs = [Trajectory(config=cfg if ics is None else replace(cfg, ic=ic),
                        times=list(times), snapshots=[v[:, b] for v in snaps],
                        diagnostics=[d[b] for d in diags], v_max=v_max, dt=dt,
                        drift_max=float(drift_max[b]))
             for b, ic in enumerate(member_ics)]
    return trajs[0] if ics is None else trajs
