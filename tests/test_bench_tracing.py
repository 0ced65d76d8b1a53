"""The benchmark (``bench/``) wraps program functions by name; a renamed or
removed one must fail here, in the main suite, and not only in bench/tests."""

from pathlib import Path

import numpy as np

from replay_lab import cli
from replay_lab.sampling import ReplayBuffer

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_on_every_traced_name_and_counts_an_offer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    update = ReplayBuffer.update
    tr = tracing.install(cli)
    try:
        buf = ReplayBuffer(4, "reservoir", class_count=2)
        buf.update(np.zeros((1, 3)), [1], [0.0], np.random.default_rng(0))
        _, counts, _ = tr.take()
        assert counts == {"sampling.offers": 1, "sampling.admitted": 1}
    finally:
        tr.uninstall()
    assert ReplayBuffer.update is update
