"""Fixtures shared by the test modules."""

import os

import pytest


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs the library sees; count the processes it forks.
    `cpus(count)` returns the list of forked pids, emptied on each call."""
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)

    def use(count):
        forks.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
        return forks

    return use
