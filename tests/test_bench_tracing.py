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


def test_balance_toy_round_passes_the_benchmark_checks(monkeypatch, tmp_path):
    # one round of the benchmark's balance-toy workload, checked as the
    # benchmark checks it: a change to `ring` or `balance_toy` that the
    # benchmark would refuse fails here too
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    monkeypatch.setattr(cli, "balance_toy", cli.balance_toy)   # restored after the test
    job = workloads.BalanceToy(0, tmp_path)
    assert job.prepare() == []
    job.reuse_setup(cli)
    assert cli.main(job.argv()) == 0
    overlap, problems = job.check_round()
    assert problems == []
    assert 0.0 < overlap <= 1.0
