"""The split evolve, `solver1d._Split`: a grid of SPLIT_MIN_CELLS cells or
more steps each half of its cells in its own process.

A split evolve must give the serial evolve's results and aborts bit for
bit, fall back to the serial path wherever it cannot start, and leave no
child process behind (`no_child_left`).  Each test lowers the floor to 16
cells, so every grid of these tests may split.  Under `taskset -c 0` the
gate keeps every evolve serial, and `test_the_affinity_mask_decides`
asserts that.
"""

import errno
import math
import mmap
import os
import signal
import time

import numpy as np
import pytest
from test_config_cli import ABORTS
from test_ladder import no_child_left  # noqa: F401 -- autouse: no child outlives a test
from test_rk4_stage import CASES, bits, trajectory_bits

from vecf import cli, config, solver1d
from vecf.constitutive import TransportModel
from vecf.experiments import convergence_study
from vecf.solver1d import SolverAbort, SolverConfig, evolve, gaussian_pulse

TWO_CPUS = len(os.sched_getaffinity(0)) >= 2


@pytest.fixture
def forks(monkeypatch, tmp_path):
    """Split from 16 cells on; the pids that forked, from any process."""
    monkeypatch.setattr(solver1d, "SPLIT_MIN_CELLS", 16)
    log = tmp_path / "forks"
    log.touch()
    fork = os.fork

    def logged():
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return fork()
    monkeypatch.setattr(os, "fork", logged)
    return lambda: [int(pid) for pid in log.read_text().split()]


def _force_two_cpus(monkeypatch):
    # the gate sees two CPUs on any host; pinning is a no-op, so the test
    # process keeps its own mask
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: None)


def _serial(monkeypatch, fn):
    monkeypatch.setattr(solver1d, "SPLIT_MIN_CELLS", math.inf)
    try:
        return fn()
    finally:
        monkeypatch.setattr(solver1d, "SPLIT_MIN_CELLS", 16)


def _owns(a: np.ndarray) -> bool:
    """Whether no array in a's chain of bases views shared memory."""
    while isinstance(a, np.ndarray):
        a = a.base
    return not isinstance(a, mmap.mmap)


def _same_runs(got, want) -> bool:
    got, want = ([r] if not isinstance(r, list) else r for r in (got, want))
    return len(got) == len(want) and all(
        len(trajectory_bits(a)) == len(trajectory_bits(b))
        and all(np.array_equal(x, y) for x, y in zip(trajectory_bits(a), trajectory_bits(b)))
        for a, b in zip(got, want))


def test_the_affinity_mask_decides(forks):
    # under `taskset -c 0` the evolve runs in this process
    cfg, _ = CASES["gaussian"]
    evolve(cfg)
    assert forks() == ([os.getpid()] if TWO_CPUS else [])


@pytest.mark.parametrize("case", list(CASES))
def test_the_split_keeps_the_serial_bits(monkeypatch, forks, case):
    mask = os.sched_getaffinity(0)
    cfg, ics = CASES[case]
    got = evolve(cfg, ics=ics)
    assert forks() == ([os.getpid()] if TWO_CPUS else [])
    assert os.sched_getaffinity(0) == mask
    want = _serial(monkeypatch, lambda: evolve(cfg, ics=ics))
    assert _same_runs(got, want)
    runs = [got] if ics is None else got
    assert all(_owns(v) for traj in runs for v in traj.snapshots)


def _abort(cfg) -> SolverAbort:
    with pytest.raises(SolverAbort) as info:
        evolve(cfg)
    return info.value


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eps0", ["1e120", "1e150", "1e80"])
def test_an_abort_in_a_half_is_the_serial_abort(monkeypatch, forks, eps0):
    # the first stage drives eps negative, the det overflows in the first
    # step, or eps reaches zero after it: the step is replayed serially
    cfg = cli._solver_config(config.load_config(None, [f"solver.eps0={eps0}"]))
    got = _abort(cfg)
    assert forks() == ([os.getpid()] if TWO_CPUS else [])
    want = _serial(monkeypatch, lambda: _abort(cfg))
    message, step_index = ABORTS["evolve", eps0]
    assert str(got) == str(want) and got.message.startswith(message)
    assert (got.t, got.step_index) == (want.t, want.step_index)
    assert got.step_index == step_index
    assert np.array_equal(bits(got.grid.V), bits(want.grid.V))
    assert np.array_equal(bits(got.grid.W), bits(want.grid.W))
    assert _owns(got.grid.V) and _owns(got.grid.W)


def test_a_courant_abort_here_stops_the_helper(monkeypatch, forks):
    # test_solver1d's run that passes a Courant number of 1 by its first
    # diagnostic: the check runs here while the helper waits at a barrier
    n, a2 = 64, 6.0
    v_rest = np.sqrt(2.0 * (2.0 + a2) / (3.0 * a2))
    cfg = SolverConfig(transport=TransportModel(a2=a2), n_cells=n, cfl=1.0,
                       t_end=20 * (2.0 / n) / v_rest * (1.0 - 1e-4),
                       ic=gaussian_pulse(amplitude=0.2), output_every=5)
    got = _abort(cfg)
    assert forks() == ([os.getpid()] if TWO_CPUS else [])
    want = _serial(monkeypatch, lambda: _abort(cfg))
    assert str(got) == str(want) and got.message.startswith("CFL violated")
    assert (got.t, got.step_index) == (want.t, want.step_index) and got.step_index == 5
    assert np.array_equal(bits(got.grid.V), bits(want.grid.V))
    assert _owns(got.grid.V) and _owns(got.grid.W)


def test_a_helper_killed_mid_run_is_a_runtime_error(monkeypatch, forks):
    _force_two_cpus(monkeypatch)
    parent = os.getpid()
    rhs = solver1d._rhs
    calls = []

    def dying(*args):
        calls.append(None)
        if os.getpid() != parent and len(calls) == 6:
            os.kill(os.getpid(), signal.SIGKILL)
        return rhs(*args)
    monkeypatch.setattr(solver1d, "_rhs", dying)
    cfg, _ = CASES["gaussian"]
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="split evolve helper was killed by SIGKILL"):
        evolve(cfg)
    assert time.perf_counter() - start < 30.0
    assert forks() == [parent]


def test_a_failed_fork_steps_here(monkeypatch, forks):
    # a process limit or a memory shortage: the pipes are closed again, the
    # mask is restored, and the evolve gives the serial run's bits
    cfg, _ = CASES["shear"]
    want = _serial(monkeypatch, lambda: evolve(cfg))
    pipes, masks = [], []
    pipe = os.pipe

    def recorded():
        fds = pipe()
        pipes.extend(fds)
        return fds

    def fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: masks.append(mask))
    monkeypatch.setattr(os, "pipe", recorded)
    monkeypatch.setattr(os, "fork", fork)
    assert _same_runs(evolve(cfg), want)
    assert masks == [{0}, {0, 1}]
    assert len(pipes) == 4
    for fd in pipes:
        with pytest.raises(OSError):
            os.fstat(fd)


def test_pinning_that_raises_steps_here(monkeypatch, forks):
    cfg, _ = CASES["gaussian"]
    want = _serial(monkeypatch, lambda: evolve(cfg))

    def refuse(pid, mask):
        raise OSError(errno.EINVAL, "Invalid argument")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    assert _same_runs(evolve(cfg), want)
    assert forks() == []


def test_one_cpu_steps_here(monkeypatch, forks):
    cfg, _ = CASES["gaussian"]
    want = _serial(monkeypatch, lambda: evolve(cfg))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _same_runs(evolve(cfg), want)
    assert forks() == []


def test_a_ladder_never_splits(monkeypatch, forks):
    # the ladder's child and its parent both step serially: one fork, the
    # ladder's, and the report is the serial one
    cfg = SolverConfig(transport=TransportModel(a2=6.0), n_cells=64, length=2.0,
                       t_end=0.1, ic=gaussian_pulse(amplitude=0.05, width=0.1))
    got = convergence_study(cfg, resolutions=(64, 128, 256))
    assert forks() == ([os.getpid()] if TWO_CPUS else [])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert repr(got) == repr(convergence_study(cfg, resolutions=(64, 128, 256)))
