"""Tests for run metrics: accuracy, task-mass distribution, balance, KL."""

import math

import numpy as np
import pytest

from replay_lab.datasets import Dataset, make_class_il_tasks
from replay_lab.evaluation import (average_final_accuracy, buffer_balance_mse,
                                   kl_to_uniform, task_prediction_distribution)
from replay_lab.mlp import softmax
from replay_lab.sampling import ReplayBuffer


def onehot_stream(classes=4, per_class=6, classes_per_task=2, seed=0):
    """Tasks over one-hot features, so a linear model can be rigged exactly."""
    n = classes * per_class
    labels = np.repeat(np.arange(classes), per_class)
    feats = np.eye(classes)[labels]
    train = Dataset(feats, labels, classes)
    test = Dataset(feats, labels, classes)
    return make_class_il_tasks(train, test, classes_per_task,
                               np.random.default_rng(seed))


def rigged_logits(stream, weight, bias=None):
    """Per-task test logits of the linear map ``x @ weight + bias``."""
    bias = 0.0 if bias is None else np.asarray(bias, dtype=float)
    return [task.test_features @ np.asarray(weight, dtype=float) + bias
            for task in stream.tasks]


def pooled_distribution(logits, stream):
    """Reference task mass: softmax of every test row stacked, per-task row
    sums, the mean over rows, then renormalized."""
    probs = softmax(np.vstack(logits))
    masses = np.array([probs[:, list(task.class_ids)].sum(axis=1).mean()
                       for task in stream.tasks])
    return masses / masses.sum()


class TestAverageFinalAccuracy:
    def test_oracle_model_is_perfect(self):
        stream = onehot_stream()
        per_task, avg = average_final_accuracy(rigged_logits(stream, 10.0 * np.eye(4)), stream)
        assert per_task == [1.0, 1.0]
        assert avg == 1.0

    def test_constant_logits_reduce_to_always_predicting_class_zero(self):
        stream = onehot_stream()
        per_task, avg = average_final_accuracy(rigged_logits(stream, np.zeros((4, 4))), stream)
        # lowest-index tie-break: every example is predicted as class 0
        assert per_task[0] == pytest.approx(0.5)
        assert per_task[1] == 0.0
        assert avg == pytest.approx(0.25)

    def test_average_is_unweighted_mean_and_order_invariant(self):
        stream = onehot_stream(classes=6, classes_per_task=2)
        weight = np.diag([10.0, 10.0, -10.0, -10.0, 10.0, 10.0])
        per_task, avg = average_final_accuracy(rigged_logits(stream, weight), stream)
        assert avg == pytest.approx(float(np.mean(per_task)), abs=1e-12)
        reversed_stream = type(stream)(tasks=stream.tasks[::-1],
                                       class_count=stream.class_count)
        _, avg_rev = average_final_accuracy(rigged_logits(reversed_stream, weight),
                                            reversed_stream)
        assert avg_rev == pytest.approx(avg, abs=1e-12)


class TestTaskPredictionDistribution:
    def test_uniform_logits_give_uniform_task_mass(self):
        stream = onehot_stream()
        dist = task_prediction_distribution(rigged_logits(stream, np.zeros((4, 4))), stream)
        np.testing.assert_allclose(dist, [0.5, 0.5], atol=1e-12)

    def test_all_mass_on_last_task_is_a_delta(self):
        stream = onehot_stream()
        logits = rigged_logits(stream, np.zeros((4, 4)), bias=[0, 0, 50.0, 50.0])
        dist = task_prediction_distribution(logits, stream)
        np.testing.assert_allclose(dist, [0.0, 1.0], atol=1e-12)

    def test_sums_to_one_and_shift_invariant(self):
        stream = onehot_stream(classes=6, classes_per_task=3)
        rng = np.random.default_rng(1)
        w = rng.normal(size=(6, 6))
        base = task_prediction_distribution(rigged_logits(stream, w), stream)
        shifted = task_prediction_distribution(rigged_logits(stream, w, bias=np.full(6, 3.7)),
                                               stream)
        assert abs(base.sum() - 1.0) <= 1e-9
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_pooled_formula_with_unequal_task_sizes(self, seed):
        rng = np.random.default_rng(seed)
        stream = onehot_stream(classes=8, per_class=1, classes_per_task=2, seed=seed)
        logits = [rng.normal(scale=4.0, size=(int(rng.integers(1, 60)), 8))
                  for _ in stream.tasks]
        np.testing.assert_allclose(task_prediction_distribution(logits, stream),
                                   pooled_distribution(logits, stream), rtol=0, atol=1e-15)

    def test_a_class_in_no_task_gets_no_mass(self):
        stream = onehot_stream()
        stream = type(stream)(tasks=stream.tasks[:1], class_count=stream.class_count)
        logits = [np.array([[0.0, 0.0, 9.0, 9.0]])]
        np.testing.assert_allclose(task_prediction_distribution(logits, stream), [1.0])


class TestBufferBalanceMse:
    def fill(self, labels, class_count):
        buf = ReplayBuffer(len(labels), "reservoir", class_count=class_count)
        buf.update(np.empty((len(labels), 0)), labels, np.zeros(len(labels)),
                   np.random.default_rng(0))
        return buf

    def test_perfect_balance_is_zero(self):
        buf = self.fill([0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5], class_count=6)
        assert buffer_balance_mse(buf) == 0.0

    def test_three_doubled_three_missing(self):
        buf = self.fill([0] * 4 + [1] * 4 + [2] * 4, class_count=6)
        assert buffer_balance_mse(buf) == pytest.approx(4.0, abs=1e-12)

    def test_classes_holding_no_items_count(self):
        # capacity 2 over 4 classes: ideal 0.5, counts [1, 1, 0, 0]
        buf = self.fill([0, 1], class_count=4)
        assert buffer_balance_mse(buf) == pytest.approx(0.25)


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
