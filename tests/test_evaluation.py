"""Tests for run metrics: accuracy, task-mass distribution, balance, KL."""

import math

import numpy as np
import pytest

from replay_lab.bias_correction import CbicLayer
from replay_lab.datasets import Dataset, make_class_il_tasks
from replay_lab.evaluation import (average_final_accuracy, buffer_balance_mse,
                                   kl_to_uniform, task_prediction_distribution)
from replay_lab.mlp import Mlp
from replay_lab.sampling import ReplayBuffer


def onehot_stream(classes=4, per_class=6, classes_per_task=2, seed=0):
    """Tasks over one-hot features, so a linear model can be rigged exactly."""
    n = classes * per_class
    labels = np.repeat(np.arange(classes), per_class)
    feats = np.eye(classes)[labels]
    train = Dataset(feats, labels, classes, "train")
    test = Dataset(feats, labels, classes, "test")
    return make_class_il_tasks(train, test, classes_per_task,
                               np.random.default_rng(seed))


def rigged_model(weight, bias=None):
    model = Mlp(list(np.asarray(weight).shape), np.random.default_rng(0))
    model.weights[0][...] = weight
    model.biases[0][...] = 0.0 if bias is None else bias
    return model


class TestAverageFinalAccuracy:
    def test_oracle_model_is_perfect(self):
        stream = onehot_stream()
        model = rigged_model(10.0 * np.eye(4))
        per_task, avg = average_final_accuracy(model, None, stream)
        assert per_task == [1.0, 1.0]
        assert avg == 1.0

    def test_constant_logits_reduce_to_always_predicting_class_zero(self):
        stream = onehot_stream()
        model = rigged_model(np.zeros((4, 4)))
        per_task, avg = average_final_accuracy(model, None, stream)
        # lowest-index tie-break: every example is predicted as class 0
        assert per_task[0] == pytest.approx(0.5)
        assert per_task[1] == 0.0
        assert avg == pytest.approx(0.25)

    def test_average_is_unweighted_mean_and_order_invariant(self):
        stream = onehot_stream(classes=6, classes_per_task=2)
        model = rigged_model(np.diag([10.0, 10.0, -10.0, -10.0, 10.0, 10.0]))
        per_task, avg = average_final_accuracy(model, None, stream)
        assert avg == pytest.approx(float(np.mean(per_task)), abs=1e-12)
        reversed_stream = type(stream)(tasks=stream.tasks[::-1],
                                       class_count=stream.class_count)
        _, avg_rev = average_final_accuracy(model, None, reversed_stream)
        assert avg_rev == pytest.approx(avg, abs=1e-12)


class TestTaskPredictionDistribution:
    def test_uniform_logits_give_uniform_task_mass(self):
        stream = onehot_stream()
        model = rigged_model(np.zeros((4, 4)))
        dist = task_prediction_distribution(model, None, stream)
        np.testing.assert_allclose(dist, [0.5, 0.5], atol=1e-12)

    def test_all_mass_on_last_task_is_a_delta(self):
        stream = onehot_stream()
        model = rigged_model(np.zeros((4, 4)), bias=[0, 0, 50.0, 50.0])
        dist = task_prediction_distribution(model, None, stream)
        np.testing.assert_allclose(dist, [0.0, 1.0], atol=1e-12)

    def test_sums_to_one_and_shift_invariant(self):
        stream = onehot_stream(classes=6, classes_per_task=3)
        rng = np.random.default_rng(1)
        w = rng.normal(size=(6, 6))
        base = task_prediction_distribution(rigged_model(w), None, stream)
        shifted = task_prediction_distribution(rigged_model(w, bias=np.full(6, 3.7)),
                                               None, stream)
        assert abs(base.sum() - 1.0) <= 1e-9
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_correction_is_applied(self):
        stream = onehot_stream()
        model = rigged_model(np.zeros((4, 4)), bias=[0, 0, 50.0, 50.0])
        partition = {c: t for t, task in enumerate(stream.tasks) for c in task.class_ids}
        fix = CbicLayer(betas=np.array([0.0, -50.0]), task_partition=partition)
        dist = task_prediction_distribution(model, fix, stream)
        np.testing.assert_allclose(dist, [0.5, 0.5], atol=1e-12)


class TestBufferBalanceMse:
    def fill(self, labels, class_count):
        buf = ReplayBuffer(len(labels), "reservoir", class_count=class_count)
        rng = np.random.default_rng(0)
        for lab in labels:
            buf.update(np.empty(0), lab, 0.0, rng)
        return buf

    def test_perfect_balance_is_zero(self):
        buf = self.fill([0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5], class_count=6)
        assert buffer_balance_mse(buf, 2.0) == 0.0

    def test_three_doubled_three_missing(self):
        buf = self.fill([0] * 4 + [1] * 4 + [2] * 4, class_count=6)
        assert buffer_balance_mse(buf, 2.0) == pytest.approx(4.0, abs=1e-12)

    def test_explicit_class_count_overrides(self):
        buf = self.fill([0, 1], class_count=2)
        assert buffer_balance_mse(buf, 1.0, class_count=4) == pytest.approx(0.5)

    def test_unknown_class_universe_rejected(self):
        buf = ReplayBuffer(2, "reservoir")
        buf.update(np.empty(0), 0, 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            buffer_balance_mse(buf, 1.0)


class TestKlToUniform:
    def test_uniform_is_zero(self):
        assert kl_to_uniform(np.full(7, 1 / 7)) == pytest.approx(0.0, abs=1e-12)

    def test_delta_on_five_tasks(self):
        assert kl_to_uniform([1.0, 0.0, 0.0, 0.0, 0.0]) == pytest.approx(math.log(5),
                                                                         abs=1e-12)

    def test_nonnegative_on_random_distributions(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = rng.dirichlet(np.ones(int(rng.integers(2, 9))))
            assert kl_to_uniform(p) >= -1e-12

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            kl_to_uniform([0.5, 0.6, -0.1])
