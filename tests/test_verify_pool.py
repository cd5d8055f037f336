"""The criteria of a suite in forked workers: the same report as in order.

run_suite runs the criteria of a suite in up to one forked worker per
usable CPU, longest first, and reassembles the rows in suite order.  These
tests fix the CPUs it sees by patching ``os.sched_getaffinity``, so they
exercise the pool (two CPUs) and the plain loop (one) on any Linux host.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from extremal import cli, verify
from extremal.errors import ConvergenceError, DomainError


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _no_fork(monkeypatch):
    def fork():
        raise AssertionError("forked")
    monkeypatch.setattr(os, "fork", fork)


def _in_order(suite, seed):
    """The report's checks and criteria from run_criterion, one after another."""
    table = verify.sharpness_table() if "8-form-bounds" in verify.SUITES[suite] else None
    rows = {crit: verify.run_criterion(crit, seed, table) for crit in verify.SUITES[suite]}
    return ([verify.check_dict(c) for crit in rows for c in rows[crit]],
            [{"criterion": crit, "passed": all(c.passed for c in rows[crit])}
             for crit in rows])


@pytest.mark.parametrize("suite", ["all", "superposed"])
@pytest.mark.parametrize("seed", [7, 8])
def test_pooled_report_is_the_serial_one(suite, seed, monkeypatch, capsys):
    _cpus(monkeypatch, 2)
    report = verify.run_suite(suite, seed)
    checks, groups = _in_order(suite, seed)
    assert report["checks"] == checks
    assert report["results"]["criteria"] == groups
    assert multiprocessing.active_children() == []
    argv = ["verify", "--suite", suite, "--seed", str(seed)]
    code = cli.main(argv)
    pooled = capsys.readouterr().out
    _cpus(monkeypatch, 1)
    _no_fork(monkeypatch)
    assert cli.main(argv) == code
    assert capsys.readouterr().out == pooled


def _raising(monkeypatch, crit, exc):
    def boom(rng):
        raise exc
    monkeypatch.setattr(verify, "CRITERIA", tuple(
        (name, boom if name == crit else fn) for name, fn in verify.CRITERIA))


@pytest.mark.parametrize("exc, code", [
    (ConvergenceError("budget spent", estimate=1.5), 3),
    (DomainError("out of domain"), 2),
], ids=["convergence", "domain"])
def test_a_worker_exception_keeps_its_class(exc, code, monkeypatch, capsys):
    # the forked workers inherit the patched criterion
    _cpus(monkeypatch, 2)
    _raising(monkeypatch, "7-log-sin-suite", exc)
    with pytest.raises(type(exc)) as info:
        verify.run_suite("periodic")
    assert str(info.value) == str(exc)
    assert getattr(info.value, "estimate", None) == getattr(exc, "estimate", None)
    assert multiprocessing.active_children() == []
    assert cli.main(["verify", "--suite", "periodic"]) == code
    assert str(exc) in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_breaks_the_pool(monkeypatch):
    # a killed worker raises instead of leaving the run waiting for its rows
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(verify, "CRITERIA", tuple(
        (name, (lambda rng: os._exit(1)) if name == "7-log-sin-suite" else fn)
        for name, fn in verify.CRITERIA))
    with pytest.raises(BrokenProcessPool):
        verify.run_suite("periodic")
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus, suite", [(1, "all"), (2, "et")])
def test_one_cpu_or_one_criterion_makes_no_fork(cpus, suite, monkeypatch):
    _cpus(monkeypatch, cpus)
    _no_fork(monkeypatch)
    report = verify.run_suite(suite)
    assert report["checks"] == _in_order(suite, 7)[0]


def test_longest_first_names_every_criterion_once():
    assert sorted(verify.LONGEST_FIRST) == sorted(name for name, _ in verify.CRITERIA)


def test_the_cli_starts_without_multiprocessing():
    # the pool's modules load in the parallel branch of run_suite only
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, extremal.cli; print(sorted(m for m in sys.modules"
         " if m.split('.')[0] in ('multiprocessing', 'concurrent')))"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))))
    assert proc.stdout == "[]\n"


def _reaped():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raises(exc):
    def criterion(rng):
        raise exc
    return criterion


@pytest.mark.parametrize("criterion, expected", [
    (None, None),
    (_raises(DomainError("out of domain")), DomainError),
    (_raises(ConvergenceError("budget spent", estimate=1.5)), ConvergenceError),
    (lambda rng: os._exit(1), BrokenProcessPool),
], ids=["clean", "domain", "convergence", "exit"])
def test_every_worker_is_reaped(criterion, expected, monkeypatch):
    _cpus(monkeypatch, 2)
    if criterion is not None:
        monkeypatch.setattr(verify, "CRITERIA", tuple(
            (name, criterion if name == "7-log-sin-suite" else fn) for name, fn in verify.CRITERIA))
    if expected is None:
        assert verify.run_suite("periodic")["results"]["passed"]
    else:
        with pytest.raises(expected):
            verify.run_suite("periodic")
    _reaped()


class _Alarm(Exception):
    pass


def test_an_exception_in_the_waiting_parent_stops_and_reaps_every_worker(monkeypatch):
    # both criteria sleep in their workers; an alarm raises in the parent
    # while it waits on their pipes, and neither worker is waited for
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(verify, "CRITERIA", tuple(
        (name, (lambda rng: time.sleep(60)) if name in verify.SUITES["periodic"] else fn)
        for name, fn in verify.CRITERIA))

    def alarm(signum, frame):
        raise _Alarm()

    previous = signal.signal(signal.SIGALRM, alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        start = time.monotonic()
        with pytest.raises(_Alarm):
            verify.run_suite("periodic")
        assert time.monotonic() - start < 30
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    _reaped()


_POOLED_RUN = """
import os, sys
from extremal import verify
forks, fork = [], os.fork
def counted():
    forks.append(1)
    return fork()
os.fork = counted
os.sched_getaffinity = lambda pid: {0, 1}
verify.run_suite("periodic")
print(len(forks), sorted(m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent")))
"""


def test_a_pooled_run_loads_neither_multiprocessing_nor_concurrent():
    # two bare forked workers, and no pool module in the parent
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _POOLED_RUN], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))))
    assert proc.stdout == "2 []\n"
