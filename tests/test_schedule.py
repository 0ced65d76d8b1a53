"""Tests for the exponential per-example learning-rate schedule: the rate
``er_train_step`` reads, ``lr0 * exp(examples_seen * log_decay)``, and the
``log_decay`` that ``_log_decay`` sets for ELRD."""

import math

import numpy as np
import pytest

from replay_lab import trainer
from replay_lab.datasets import synthetic_class_il_stream
from replay_lab.trainer import TrainConfig, er_train_step, init_state, _log_decay

SMOKE = dict(class_count=4, per_class_train=30, per_class_test=10,
             feature_dim=8, separation=4.0, classes_per_task=2)


def make_state(lr0, log_decay):
    stream = synthetic_class_il_stream(seed=0, **SMOKE)
    config = TrainConfig(buffer_capacity=12, replay_batch_size=8, stream_batch_size=5,
                         epochs_per_task=1, hidden_dims=(8,), lr0=lr0, seed=0)
    state = init_state(stream, config)
    state.log_decay = log_decay
    task = stream.tasks[0]
    batch = (task.train_features[:5], task.train_labels[:5])
    return state, config, batch


def rate_at(state, config, batch, examples_seen):
    """The rate one training step uses after ``examples_seen`` stream examples."""
    state.examples_seen = examples_seen
    return er_train_step(state, *batch, config).lr


def elrd_config(batch, epochs=1):
    return TrainConfig(elrd=True, stream_batch_size=batch, epochs_per_task=epochs)


class TestLrAt:
    def test_start_of_stream_gives_lr0(self):
        state, config, batch = make_state(0.25, math.log(0.999))
        assert rate_at(state, config, batch, 0) == 0.25

    def test_known_decay_value(self):
        state, config, batch = make_state(0.1, math.log(0.9999))
        lr = rate_at(state, config, batch, 10_000)
        expected = 0.1 * math.exp(10_000 * math.log(0.9999))
        assert lr == pytest.approx(expected, rel=1e-12)
        assert lr == pytest.approx(0.036786, abs=5e-7)

    def test_gamma_one_is_constant(self):
        state, config, batch = make_state(0.3, 0.0)
        assert rate_at(state, config, batch, 0) == rate_at(state, config, batch, 123_456) == 0.3

    def test_monotone_non_increasing(self):
        state, config, batch = make_state(0.5, math.log(0.99))
        values = [rate_at(state, config, batch, n) for n in range(0, 2000, 37)]
        assert all(b <= a for a, b in zip(values, values[1:]))


class TestGammaForFinalFraction:
    def test_one_step_halving(self, monkeypatch):
        # one task within one batch: the final step sees 0 examples before
        # it, and the decay is clamped to one example's worth
        monkeypatch.setattr(trainer, "ELRD_FINAL_FRACTION", 0.5)
        assert math.exp(_log_decay(elrd_config(batch=10), [10])) == pytest.approx(0.5, rel=1e-15)

    def test_one_sixth_over_sixty_thousand(self):
        # 60,010 examples in batches of 10: 60,000 come before the final step
        log_decay = _log_decay(elrd_config(batch=10), [30_000, 30_010])
        assert math.exp(log_decay) == pytest.approx(0.99997014, abs=5e-9)

    @pytest.mark.parametrize("fraction,total", [(1 / 6, 60_000), (0.1, 5_000),
                                                (0.9, 17), (1 / 3, 1_000_000)])
    def test_round_trip_lands_on_target(self, fraction, total, monkeypatch):
        # a last task of one row: ``total`` examples come before the final step
        monkeypatch.setattr(trainer, "ELRD_FINAL_FRACTION", fraction)
        lr0 = 0.07
        state, config, batch = make_state(lr0, _log_decay(elrd_config(batch=2), [total, 1]))
        assert rate_at(state, config, batch, total) == pytest.approx(lr0 * fraction, rel=1e-9)


def test_schedule_is_a_pure_value():
    # the rate depends on the examples seen only, not on the model or the
    # buffer that the steps in between have changed
    state, config, batch = make_state(0.1, math.log(0.999))
    rng = np.random.default_rng(0)
    points = rng.integers(0, 10_000, size=50)
    first = [rate_at(state, config, batch, int(n)) for n in points]
    second = [rate_at(state, config, batch, int(n)) for n in points]
    assert first == second
