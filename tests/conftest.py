"""Fixtures shared by the test modules."""

import os
from types import SimpleNamespace

import pytest


@pytest.fixture
def wall_clock_free():
    """A function from an output directory to the text of each file in it,
    by file name, with the one thing that differs between two runs of a
    seeded command removed: the ``wall_clock_seconds`` column of a CSV file,
    found by its header name on the line after the ``#`` schema and
    config-hash line, which is kept; and every JSON line that holds
    ``"wall_clock_seconds"``. Two runs wrote the same bytes apart from their
    wall-clock times if the two results are equal.
    """
    def read(out_dir):
        texts = {}
        for path in sorted(out_dir.iterdir()):
            lines = path.read_text().split("\n")
            header = lines[1].split(",") if path.suffix == ".csv" else []
            if "wall_clock_seconds" in header:
                drop = header.index("wall_clock_seconds")
                lines[1:] = [",".join(v for i, v in enumerate(line.split(",")) if i != drop)
                             for line in lines[1:]]
            elif path.suffix == ".json":
                lines = [line for line in lines if '"wall_clock_seconds"' not in line]
            texts[path.name] = "\n".join(lines)
        return texts

    return read


@pytest.fixture
def two_processes(monkeypatch, tmp_path):
    """Switch ``trainer.run_many`` from serial to forked processes on two
    usable cores.

    The BLAS thread variables are unset first, so runs are serial until the
    returned ``enable(owner, name)`` is called. From then on
    ``OPENBLAS_NUM_THREADS`` is 1 and two cores are usable, so ``run_many``
    forks: three items take three processes, two or four and more take two
    (``trainer.process_count``). ``enable`` returns a log: ``forked`` lists
    the pids forked by this process, and ``callers()`` the pids that called
    ``owner.name``, which it wraps. After the test no child process may be
    left, running or not reaped.
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
