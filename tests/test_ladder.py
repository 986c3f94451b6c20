"""The resolution ladder's forked runner, `experiments._run_ladder`.

A forked run must give the serial run's results bit for bit, raise the
serial run's first exception, and leave no child process behind.  Each
test sets the CPU count `_run_ladder` reads by patching
`os.sched_getaffinity`; one CPU is the serial path.
"""

import errno
import os
import signal
import threading
import time

import pytest

from vecf.constitutive import TransportModel
from vecf.experiments import _run_ladder, convergence_study, dod_experiment
from vecf.solver1d import (SolverAbort, SolverConfig, constant_state,
                           gaussian_pulse, make_grid)


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    # raises only when this process has no child, running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raise(what):
    def job():
        raise ValueError(f"{what} failed in {os.getpid()}")
    return job


def _sleep():
    time.sleep(60.0)


def test_one_cpu_or_one_job_runs_here(monkeypatch):
    jobs = [os.getpid, os.getpid]
    _cpus(monkeypatch, 1)
    assert _run_ladder(jobs) == [os.getpid()] * 2
    _cpus(monkeypatch, 2)
    assert _run_ladder(jobs[:1]) == [os.getpid()]
    pids = _run_ladder(jobs)
    assert pids[1] == os.getpid() != pids[0]


def test_the_affinity_mask_decides():
    # under `taskset -c 0` the ladder runs in this process
    pids = _run_ladder([os.getpid, os.getpid])
    assert (pids[0] != os.getpid()) == (len(os.sched_getaffinity(0)) >= 2)
    assert pids[1] == os.getpid()


def test_another_thread_keeps_the_ladder_here(monkeypatch):
    # a forked child would hold only the calling thread
    _cpus(monkeypatch, 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _run_ladder([os.getpid, os.getpid]) == [os.getpid()] * 2
    finally:
        stop.set()
        thread.join()


@pytest.mark.parametrize("eps0,resolutions,probe_x", [
    (1.0, (64, 128), 0.45),
    (1.0, (128, 256, 512), 0.7),
    # at eps0 = 0.7 the base is no exact fixed point and is stepped
    (0.7, (64, 128, 256), 0.5),
])
def test_forked_dod_equals_serial_bitwise(monkeypatch, eps0, resolutions, probe_x):
    cfg = SolverConfig(transport=TransportModel(a2=6.0), n_cells=resolutions[0],
                       length=2.0, t_end=0.35, ic=constant_state(eps0=eps0))

    def run(n):
        _cpus(monkeypatch, n)
        return dod_experiment(cfg, probe_t=0.35, probe_x=probe_x,
                              resolutions=resolutions)
    assert repr(run(2)) == repr(run(1))


def test_forked_convergence_equals_serial_bitwise(monkeypatch):
    cfg = SolverConfig(transport=TransportModel(a2=6.0), n_cells=64, length=2.0,
                       t_end=0.5, ic=gaussian_pulse(amplitude=0.05, width=0.1))
    reports = []
    for n in (2, 1):
        _cpus(monkeypatch, n)
        reports.append(convergence_study(cfg, resolutions=(64, 128, 256)))
    forked, serial = reports
    assert repr(forked) == repr(serial)
    assert sorted(forked.drift) == [64, 128, 256]


@pytest.mark.parametrize("cpus", [2, 1])
def test_the_first_failure_in_ladder_order_is_raised(monkeypatch, cpus):
    # forked, job 0 fails in the child and job 1 in this process
    _cpus(monkeypatch, cpus)
    with pytest.raises(ValueError, match="job 0 failed") as info:
        _run_ladder([_raise("job 0"), _raise("job 1")])
    assert (str(info.value) == f"job 0 failed in {os.getpid()}") == (cpus == 1)
    if cpus > 1:
        # the child's traceback comes back as the cause
        assert "in job\n" in str(info.value.__cause__)


def test_a_solver_abort_crosses_the_pipe(monkeypatch):
    grid = make_grid(SolverConfig(transport=TransportModel(a2=6.0), n_cells=16,
                                  ic=constant_state()))

    def abort():
        raise SolverAbort("energy density reached zero", 0.25, 7, grid)
    _cpus(monkeypatch, 2)
    with pytest.raises(SolverAbort) as info:
        _run_ladder([abort, lambda: None])
    assert str(info.value) == "energy density reached zero at t=0.25 (step 7)"
    assert (info.value.step_index, info.value.grid.V.tolist()) == (7, grid.V.tolist())


def test_a_failed_fork_runs_the_ladder_here(monkeypatch):
    # a process limit or a memory shortage: the pipe is closed again, and
    # the jobs give the serial run's results
    pipes = []

    def pipe():
        fds = real_pipe()
        pipes.extend(fds)
        return fds

    def fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
    real_pipe = os.pipe
    cfg = SolverConfig(transport=TransportModel(a2=6.0), n_cells=64, length=2.0,
                       t_end=0.35, ic=constant_state())
    _cpus(monkeypatch, 1)
    serial = dod_experiment(cfg, probe_t=0.35, probe_x=0.45, resolutions=(64, 128))
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    assert _run_ladder([os.getpid, os.getpid]) == [os.getpid()] * 2
    assert repr(dod_experiment(cfg, probe_t=0.35, probe_x=0.45,
                               resolutions=(64, 128))) == repr(serial)
    assert len(pipes) == 4
    for fd in pipes:
        with pytest.raises(OSError):
            os.fstat(fd)


def test_an_interrupt_here_kills_and_reaps_the_child(monkeypatch):
    def interrupt():
        raise KeyboardInterrupt
    _cpus(monkeypatch, 2)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        _run_ladder([_sleep, _sleep, interrupt])
    assert time.perf_counter() - start < 30.0


def test_a_child_killed_by_a_signal_is_a_runtime_error(monkeypatch):
    _cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="killed by SIGKILL"):
        _run_ladder([lambda: os.kill(os.getpid(), signal.SIGKILL),
                     lambda: None])


def test_a_child_that_exits_without_a_result_is_a_runtime_error(monkeypatch):
    _cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="exited with status 3"):
        _run_ladder([lambda: os._exit(3), lambda: None])
