"""Fixtures shared by the test modules."""

import os
from types import SimpleNamespace

import pytest


@pytest.fixture
def two_processes(monkeypatch, tmp_path):
    """Switch ``trainer.run_many`` from serial to two forked processes.

    The BLAS thread variables are unset first, so runs are serial until the
    returned ``enable(owner, name)`` is called. From then on
    ``OPENBLAS_NUM_THREADS`` is 1 and two cores are usable, so ``run_many``
    forks. ``enable`` returns a log: ``forked`` lists the pids forked by this
    process, and ``callers()`` the pids that called ``owner.name``, which
    it wraps. After the test no child process may be left, running or not
    reaped.
    """
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    pid_file = tmp_path / "callers.txt"
    log = SimpleNamespace(forked=[], callers=lambda: set(pid_file.read_text().split()))

    def enable(owner, name):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        fork, fn = os.fork, getattr(owner, name)

        def logged_fork():
            pid = fork()
            if pid:
                log.forked.append(pid)
            return pid

        def logged(*args, **kwargs):
            with open(pid_file, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return fn(*args, **kwargs)

        monkeypatch.setattr(os, "fork", logged_fork)
        monkeypatch.setattr(owner, name, logged)
        return log

    yield enable
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
