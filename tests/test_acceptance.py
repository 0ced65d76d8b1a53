"""Acceptance suite: one test per criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -rA`` to get one line per
criterion (each test also prints a PASS summary on success).

The end-to-end ordering criterion runs on the synthetic stream (under 30 s);
set $REPLAYLAB_DATA to a directory with the four Fashion-MNIST IDX files to
run the full-size variant as well.
"""

import json
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from replay_lab import cli
from replay_lab.augmentation import AugPolicy, replay_with_iba
from replay_lab.cli import balance_toy, gradcheck, main, monte_carlo_omission
from replay_lab.datasets import load_fashion_mnist, make_class_il_tasks, \
    synthetic_class_il_stream
from replay_lab.evaluation import kl_to_uniform
from replay_lab.mlp import FD_STEP, GRADCHECK_ABS_FLOOR, GRADCHECK_REL_TOL
from replay_lab.sampling import ReplayBuffer, lars_scores
from replay_lab.trainer import (TrainConfig, _train_one_task, baseline_config,
                                init_state, run_class_il, run_joint_baseline)

# Synthetic smoke protocol: 5 tasks x 2 classes on 16-dim Gaussian blobs.
# Small buffer and moderate overlap keep the trick effects visible.
SMOKE_STREAM = dict(class_count=10, per_class_train=300, per_class_test=100,
                    feature_dim=16, separation=4.0, classes_per_task=2)
SMOKE_CONFIG = dict(buffer_capacity=20, replay_batch_size=32, stream_batch_size=10,
                    epochs_per_task=1, hidden_dims=(64, 64), lr0=0.2)


def smoke_stream(seed=0):
    return synthetic_class_il_stream(seed=seed, **SMOKE_STREAM)


def test_criterion_01_balance_toy_reproduces_published_mse():
    repetitions = 500
    counts = balance_toy(repetitions=repetitions, seed=0)
    mse = {s: ((m - 2.0) ** 2).mean(axis=1) for s, m in counts.items()}
    res_mean = float(mse["reservoir"].mean())
    brs_mean = float(mse["brs"].mean())
    assert abs(res_mean - 1.64) <= 0.35, f"reservoir MSE {res_mean}"
    assert abs(brs_mean - 0.28) <= 0.35, f"brs MSE {brs_mean}"

    # paired batches of 25 repetitions: brs must win in at least 95%
    batch = 25
    wins = 0
    n_batches = repetitions // batch
    for b in range(n_batches):
        rows = slice(b * batch, (b + 1) * batch)
        wins += mse["brs"][rows].mean() < mse["reservoir"][rows].mean()
    assert wins / n_batches >= 0.95, f"brs won only {wins}/{n_batches} batches"
    print(f"criterion 1 PASS: reservoir MSE {res_mean:.3f} (target 1.64+/-0.35), "
          f"brs {brs_mean:.3f} (target 0.28+/-0.35), brs<reservoir in "
          f"{wins}/{n_batches} batches")


def test_criterion_02_omission_probability_closed_form_and_monte_carlo():
    from replay_lab.sampling import omission_probability
    p_2_2 = omission_probability(2, 2)
    p_10_10 = omission_probability(10, 10)
    assert p_2_2 == pytest.approx(0.25, abs=1e-12)
    assert round(p_10_10, 3) == 0.349
    assert p_10_10 == pytest.approx(0.3487, abs=5e-5)
    for c, b in [(2, 2), (10, 10)]:
        mc = monte_carlo_omission(c, b, trials=100_000, seed=0)
        assert abs(mc - omission_probability(c, b)) <= 0.01, (c, b, mc)
    print(f"criterion 2 PASS: analytic {p_2_2:.4f} / {p_10_10:.4f} vs quoted "
          f"0.25 / 0.349; Monte-Carlo within 0.01 at 1e5 trials")


def test_criterion_03_reservoir_guarantee_and_shared_admission_rule():
    n_items, capacity, runs = 1000, 50, 2000
    feats = np.empty((n_items, 0))
    positions = np.arange(n_items)

    hits = np.zeros(n_items)
    for run in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence([101, run]))
        buf = ReplayBuffer(capacity, "reservoir", class_count=1)
        # each item's loss is its stream position
        buf.update(feats, np.zeros(n_items, dtype=np.int64), positions.astype(float), rng)
        np.add.at(hits, buf.loss.astype(np.int64), 1)
    freq = hits / runs
    p = capacity / n_items
    sd = np.sqrt(p * (1 - p) / runs)
    frac_ok = float(np.mean(np.abs(freq - p) <= 3 * sd))
    assert frac_ok >= 0.99, f"only {frac_ok:.4f} of items within 3 sd"

    admission_ok = {}
    p_admit = np.minimum(1.0, capacity / (positions + 1.0))
    sd_admit = np.sqrt(p_admit * (1 - p_admit) / runs)
    for strategy in ("brs", "lars"):
        admitted = np.zeros(n_items)
        for run in range(runs):
            rng = np.random.default_rng(np.random.SeedSequence([103, run]))
            buf = ReplayBuffer(capacity, strategy, class_count=10)
            slots = buf.update(feats, positions % 10, np.full(n_items, 0.5), rng)
            admitted += slots >= 0
        ok = np.abs(admitted / runs - p_admit) <= 3 * sd_admit + 1e-12
        admission_ok[strategy] = float(ok.mean())
        assert admission_ok[strategy] >= 0.99, (strategy, admission_ok[strategy])
    print(f"criterion 3 PASS: inclusion within 3sd for {frac_ok:.1%} of items; "
          f"admission within 3sd for {admission_ok['brs']:.1%} (brs) / "
          f"{admission_ok['lars']:.1%} (lars)")


def test_criterion_04_gradient_correctness_and_mutation_detection():
    assert (GRADCHECK_REL_TOL, GRADCHECK_ABS_FLOOR, FD_STEP) == (1e-4, 1e-7, 1e-4)
    nets, rejected = gradcheck(2024, 20)
    for i, (dims, ok, worst) in enumerate(nets):
        assert ok, f"net {i} dims {dims} worst residual {worst}"
    assert rejected, "corrupted backward slipped through the check"
    worst_overall = max(worst for _, _, worst in nets)
    print(f"criterion 4 PASS: 20 nets within {GRADCHECK_REL_TOL:g} rel / "
          f"{GRADCHECK_ABS_FLOOR:g} floor at step {FD_STEP:g} "
          f"(worst residual ratio {worst_overall:.2e}); corrupted backward rejected")


def test_criterion_05_elrd_wiring():
    stream = smoke_stream()
    config = TrainConfig(seed=0, elrd=True, **SMOKE_CONFIG)
    state = init_state(stream, config)
    per_task = [[info.lr for info in _train_one_task(state, task, config)]
                for task in stream.tasks]
    lrs = [lr for task_lrs in per_task for lr in task_lrs]
    assert lrs[0] == config.lr0
    assert lrs[-1] == pytest.approx(config.lr0 / 6, rel=1e-6), lrs[-1]
    assert all(b <= a for a, b in zip(lrs, lrs[1:]))
    for prev_task, next_task in zip(per_task, per_task[1:]):
        assert next_task[0] < prev_task[-1], "schedule restarted at a task boundary"
    print(f"criterion 5 PASS: final-step lr {lrs[-1]:.6f} == lr0/6 "
          f"{config.lr0 / 6:.6f} within 1e-6; no reset across boundaries")


def _ordering_margins(stream, base, tricks, seeds):
    means = {}
    runs = {
        "sgd": lambda s: run_class_il(stream, baseline_config(replace(base, seed=s))),
        "er": lambda s: run_class_il(stream, replace(base, seed=s)),
        "er_tricks": lambda s: run_class_il(stream, replace(tricks, seed=s)),
        "joint": lambda s: run_joint_baseline(stream, replace(base, seed=s)),
    }
    for name, fn in runs.items():
        means[name] = float(np.mean([fn(s).average_accuracy for s in seeds]))
    return means


def _assert_ordering(means):
    margin = 0.02
    assert means["er"] >= means["sgd"] + margin, means
    assert means["er_tricks"] >= means["er"] + margin, means
    assert means["joint"] >= means["er_tricks"] + margin, means


def test_criterion_06_end_to_end_ordering_synthetic_smoke():
    stream = smoke_stream()
    base = TrainConfig(seed=0, **SMOKE_CONFIG)
    tricks = replace(base, bic=True, elrd=True, lars=True)
    means = _ordering_margins(stream, base, tricks, seeds=range(5))
    _assert_ordering(means)
    print("criterion 6 PASS (synthetic smoke): "
          + " < ".join(f"{k}={means[k]:.3f}"
                       for k in ("sgd", "er", "er_tricks", "joint"))
          + " with >= 2-point separations over 5 seeds")


def _fashion_mnist_dir():
    path = os.environ.get("REPLAYLAB_DATA", "")
    if not path:
        return None
    needed = ["train-images-idx3-ubyte", "train-labels-idx1-ubyte",
              "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"]
    root = Path(path)
    if all((root / n).exists() or (root / (n + ".gz")).exists() for n in needed):
        return root
    return None


@pytest.mark.skipif(_fashion_mnist_dir() is None,
                    reason="set $REPLAYLAB_DATA to the Fashion-MNIST IDX files")
def test_criterion_06_end_to_end_ordering_fashion_mnist():
    train, test = load_fashion_mnist(_fashion_mnist_dir())
    stream = make_class_il_tasks(train, test, 2, np.random.default_rng(0))
    base = TrainConfig(buffer_capacity=500, replay_batch_size=32,
                       stream_batch_size=32, epochs_per_task=1,
                       hidden_dims=(256, 256), lr0=0.1, seed=0)
    tricks = replace(base, bic=True, elrd=True, lars=True)
    means = _ordering_margins(stream, base, tricks, seeds=range(5))
    _assert_ordering(means)
    print("criterion 6 PASS (Fashion-MNIST): "
          + " < ".join(f"{k}={means[k]:.3f}"
                       for k in ("sgd", "er", "er_tricks", "joint")))


def test_criterion_07_bias_flattening():
    stream = smoke_stream()
    side_buffer = TrainConfig(seed=0, replay_enabled=False,
                              **{**SMOKE_CONFIG, "buffer_capacity": 100})
    cbic_report = run_class_il(stream, replace(side_buffer, cbic=True))
    bic_report = run_class_il(stream, replace(side_buffer, bic=True))

    raw = np.array(cbic_report.task_pred_distribution_raw)
    assert int(raw.argmax()) == stream.n_tasks - 1, raw

    kl_raw = kl_to_uniform(raw)
    kl_cbic = kl_to_uniform(np.array(cbic_report.task_pred_distribution))
    assert kl_cbic < kl_raw, (kl_raw, kl_cbic)

    raw_bic = np.array(bic_report.task_pred_distribution_raw)
    corrected_bic = np.array(bic_report.task_pred_distribution)
    assert corrected_bic[-1] < raw_bic[-1], (raw_bic, corrected_bic)
    print(f"criterion 7 PASS: raw argmax = last task; KL {kl_raw:.3f} -> "
          f"{kl_cbic:.3f} after CBiC; last-task mass {raw_bic[-1]:.3f} -> "
          f"{corrected_bic[-1]:.3f} after BiC")


def test_criterion_08_iba_contract():
    stream = smoke_stream()
    config = TrainConfig(seed=0, iba=True, aug_max_shift=2, image_dims=(4, 4, 1),
                         **SMOKE_CONFIG)
    state = init_state(stream, config)
    for task in stream.tasks:
        _train_one_task(state, task, config)
    raw_rows = {row.tobytes() for task in stream.tasks for row in task.train_features}
    assert state.buffer.n_filled > 0
    for row in state.buffer.features[:state.buffer.n_filled]:
        assert row.tobytes() in raw_rows, \
            "buffer holds a feature vector that is not a raw stream item"

    # two draws of one slot under max_shift=2 differ almost always
    buf = ReplayBuffer(1, "reservoir", class_count=1)
    rng = np.random.default_rng(1)
    buf.update(rng.uniform(size=(1, 784)), [0], [0.0], rng)
    policy = AugPolicy(image_dims=(28, 28, 1), max_shift=2, hflip_prob=0.0)
    differ = 0
    trials = 1000
    for _ in range(trials):
        _, feats, _ = replay_with_iba(buf, 2, policy, rng, rng)
        differ += not np.array_equal(feats[0], feats[1])
    assert differ / trials > 0.9, f"only {differ}/{trials} draw pairs differed"
    print(f"criterion 8 PASS: buffer features bit-equal to raw stream items; "
          f"{differ}/{trials} same-slot draw pairs differed")


def _brute_force_lars_probs(labels, losses):
    """Line-by-line reimplementation of the loss-aware scores with plain
    Python loops, for cross-checking the vectorized version."""
    n = len(labels)
    counts = {}
    for y in labels:
        counts[y] = counts.get(y, 0) + 1
    s_balance = [float(counts[y]) for y in labels]
    s_loss = [-float(l) for l in losses]
    sum_bal = sum(abs(v) for v in s_balance)
    sum_loss = sum(abs(v) for v in s_loss)
    alpha = sum_bal / sum_loss if sum_loss > 0 else 0.0
    s = [sl * alpha + sb for sl, sb in zip(s_loss, s_balance)]
    m = min(s)
    shifted = [max(v - m, 0.0) for v in s]
    total = sum(shifted)
    if total > 0:
        return [v / total for v in shifted]
    return [1.0 / n] * n


def test_criterion_09_lars_score_oracle():
    buf = ReplayBuffer(4, "lars", class_count=2)
    rng = np.random.default_rng(0)
    buf.update(np.empty((4, 0)), [0, 0, 0, 1], [1.0, 3.0, 1.0, 1.0], rng)
    probs = lars_scores(buf).probs
    np.testing.assert_allclose(probs, [5 / 12, 0.0, 5 / 12, 1 / 6], atol=1e-15)

    rng = np.random.default_rng(42)
    for trial in range(100):
        n = int(rng.integers(2, 16))
        labels = rng.integers(0, 5, size=n).tolist()
        # mix of generic, all-zero, and tied loss patterns
        kind = trial % 3
        if kind == 0:
            losses = rng.uniform(0, 4, size=n).tolist()
        elif kind == 1:
            losses = [0.0] * n
        else:
            losses = [1.5] * n
        buf = ReplayBuffer(n, "lars", class_count=5)
        buf.update(np.empty((n, 0)), labels, losses, rng)
        expected = _brute_force_lars_probs(labels, losses)
        np.testing.assert_allclose(lars_scores(buf).probs, expected, atol=1e-12)
    print("criterion 9 PASS: hand-computed 4-item probabilities exact; "
          "100 random buffers match the brute-force oracle within 1e-12")


@pytest.mark.parametrize("processes_b", [1, 2])
def test_criterion_10_cli_determinism(tmp_path, two_processes, wall_clock_free, processes_b):
    # run b trains in `processes_b` processes; run a is always serial
    cfg_text = "\n".join([
        "dataset = synthetic",
        "seeds = 0,1",
        "tricks = bic,elrd,lars",
        "buffer_capacity = 20",
        "stream_batch_size = 10",
        "hidden_dims = 32,32",
        "lr0 = 0.2",
        "synthetic.class_count = 10",
        "synthetic.per_class = 100",
        "synthetic.per_class_test = 30",
        "synthetic.feature_dim = 16",
        "synthetic.separation = 4.0",
    ])
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(cfg_text + "\n")

    outputs = []
    for name in ("a", "b"):
        if name == "b" and processes_b == 2:
            forks = two_processes(cli, "run_class_il")
        out = tmp_path / name
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        outputs.append(wall_clock_free(out))
    assert outputs[0] == outputs[1]
    if processes_b == 2:
        assert len(forks.forked) == 1 and len(forks.callers()) == 2
    print("criterion 10 PASS: repeated invocations byte-identical outside "
          "wall-clock fields")
