import os

import pytest


@pytest.fixture()
def forks(monkeypatch):
    """The pid of every child process the code under test forks."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids
