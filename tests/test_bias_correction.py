"""Tests for the affine (last task) and per-task additive logit corrections."""

import math

import numpy as np
import pytest

from replay_lab.bias_correction import (BiasFitConfig, BicLayer, CbicLayer,
                                        fit_bic, fit_cbic)
from replay_lab.mlp import Mlp, softmax
from replay_lab.sampling import ReplayBuffer


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def buffer_of(features, labels):
    buf = ReplayBuffer(len(labels), "reservoir")
    rng = np.random.default_rng(0)
    for f, y in zip(features, labels):
        buf.update(np.asarray(f, dtype=float), int(y), 0.0, rng)
    return buf


def linear_model(weight, bias=None):
    """Single affine layer with exactly the given parameters."""
    weight = np.asarray(weight, dtype=float)
    model = Mlp(list(weight.shape), np.random.default_rng(0))
    model.weights[0][...] = weight
    model.biases[0][...] = 0.0 if bias is None else np.asarray(bias, dtype=float)
    return model


class TestApplyBic:
    def test_identity_correction(self):
        layer = BicLayer(alpha=1.0, beta=0.0, last_task_classes=frozenset({2, 3}))
        logits = np.array([[1.0, -2.0, 0.5, 3.0]])
        np.testing.assert_array_equal(layer.apply(logits), logits)

    def test_hand_computed_piecewise_example(self):
        layer = BicLayer(alpha=0.5, beta=-1.0, last_task_classes=frozenset({2, 3}))
        out = layer.apply(np.array([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_allclose(out, [1.0, 2.0, 0.5, 1.0], atol=1e-15)

    def test_non_last_logits_bit_identical_and_input_untouched(self):
        layer = BicLayer(alpha=2.0, beta=0.3, last_task_classes=frozenset({1}))
        logits = np.random.default_rng(1).normal(size=(5, 4))
        copy = logits.copy()
        out = layer.apply(logits)
        np.testing.assert_array_equal(logits, copy)
        np.testing.assert_array_equal(out[:, [0, 2, 3]], logits[:, [0, 2, 3]])

    def test_class_out_of_range_rejected(self):
        layer = BicLayer(alpha=1.0, beta=0.0, last_task_classes=frozenset({5}))
        with pytest.raises(ValueError):
            layer.apply(np.zeros((2, 4)))

    def test_empty_class_set_rejected(self):
        with pytest.raises(ValueError):
            BicLayer(alpha=1.0, beta=0.0, last_task_classes=frozenset())

    def test_all_classes_last_is_a_global_affine_map(self):
        layer = BicLayer(alpha=0.5, beta=2.0, last_task_classes=frozenset({0, 1, 2}))
        logits = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(layer.apply(logits), 0.5 * logits + 2.0)


class TestApplyCbic:
    def test_zero_betas_is_identity(self):
        layer = CbicLayer(betas=np.zeros(2), task_partition={0: 0, 1: 0, 2: 1, 3: 1})
        logits = np.random.default_rng(2).normal(size=(3, 4))
        np.testing.assert_array_equal(layer.apply(logits), logits)

    def test_hand_computed_offsets(self):
        layer = CbicLayer(betas=np.array([0.5, -0.5]),
                          task_partition={0: 0, 1: 0, 2: 1, 3: 1})
        out = layer.apply(np.zeros(4))
        np.testing.assert_allclose(out, [0.5, 0.5, -0.5, -0.5], atol=1e-15)

    def test_common_constant_leaves_predictions_unchanged(self):
        partition = {0: 0, 1: 0, 2: 1, 3: 1}
        logits = np.random.default_rng(3).normal(size=(10, 4))
        a = CbicLayer(betas=np.array([0.2, -0.7]), task_partition=partition)
        b = CbicLayer(betas=np.array([0.2 + 5.0, -0.7 + 5.0]), task_partition=partition)
        np.testing.assert_array_equal(np.argmax(a.apply(logits), axis=1),
                                      np.argmax(b.apply(logits), axis=1))
        np.testing.assert_allclose(softmax(a.apply(logits)),
                                   softmax(b.apply(logits)), atol=1e-12)

    def test_unmapped_class_rejected(self):
        layer = CbicLayer(betas=np.zeros(1), task_partition={0: 0, 1: 0})
        with pytest.raises(ValueError):
            layer.apply(np.zeros((1, 3)))

    def test_bic_with_unit_alpha_equals_single_task_cbic(self):
        logits = np.random.default_rng(4).normal(size=(6, 4))
        beta = 0.8
        bic = BicLayer(alpha=1.0, beta=beta, last_task_classes=frozenset({2, 3}))
        cbic = CbicLayer(betas=np.array([0.0, beta]),
                         task_partition={0: 0, 1: 0, 2: 1, 3: 1})
        np.testing.assert_allclose(bic.apply(logits), cbic.apply(logits),
                                   atol=1e-15)


def solve_wrong_scale(s=1.0):
    """Scale r at which confidently-correct items at scale s and mildly-wrong
    items at scale r balance: sigmoid(-2s)*s = sigmoid(2r)*r, making the
    identity correction the exact cross-entropy optimum."""
    target = sigmoid(-2.0 * s) * s
    lo, hi = 0.0, s
    for _ in range(200):
        mid = (lo + hi) / 2
        if sigmoid(2.0 * mid) * mid < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestFitBic:
    def identity_optimum_setup(self):
        s = 1.0
        r = solve_wrong_scale(s)
        # one-hot features select rows of the weight matrix as logits:
        # two confidently-correct items, two mildly-wrong ones
        weight = np.array([[s, -s], [-s, s], [-r, r], [r, -r]])
        model = linear_model(weight)
        buf = buffer_of(np.eye(4), labels=[0, 1, 0, 1])
        return model, buf

    def test_calibrated_model_keeps_identity_correction(self):
        model, buf = self.identity_optimum_setup()
        layer = fit_bic(model, buf, {1}, BiasFitConfig(epochs=300, batch_size=2, lr=0.05),
                        np.random.default_rng(5))
        assert abs(layer.alpha - 1.0) <= 0.1
        assert abs(layer.beta - 0.0) <= 0.1

    def test_identity_is_exactly_stationary_under_full_batches(self):
        model, buf = self.identity_optimum_setup()
        layer = fit_bic(model, buf, {1}, BiasFitConfig(epochs=200, batch_size=4, lr=0.1),
                        np.random.default_rng(6))
        assert layer.alpha == pytest.approx(1.0, abs=1e-9)
        assert layer.beta == pytest.approx(0.0, abs=1e-9)

    def test_biased_model_loss_decreases(self):
        shift = 2.5
        model = linear_model(3.0 * np.eye(4), bias=[0, 0, shift, shift])
        buf = buffer_of(np.eye(4), labels=[0, 1, 2, 3])
        layer = fit_bic(model, buf, {2, 3},
                        BiasFitConfig(epochs=100, batch_size=4, lr=0.1),
                        np.random.default_rng(7))

        feats, labels = buf.as_arrays()
        logits, _ = model.forward(feats)

        def buffer_ce(q):
            probs = softmax(q)
            return float(-np.log(probs[np.arange(4), labels]).mean())

        assert buffer_ce(layer.apply(logits)) < buffer_ce(logits)

    def test_zero_epochs_returns_identity(self):
        model, buf = self.identity_optimum_setup()
        layer = fit_bic(model, buf, {1}, BiasFitConfig(epochs=0), np.random.default_rng(8))
        assert (layer.alpha, layer.beta) == (1.0, 0.0)

    @pytest.mark.parametrize("classes", [set(), {2}])
    def test_bad_class_set_rejected(self, classes):
        # empty, or a class id past the model's two logits
        model, buf = self.identity_optimum_setup()
        with pytest.raises(ValueError):
            fit_bic(model, buf, classes, BiasFitConfig(), np.random.default_rng(16))

    def test_backbone_parameters_untouched(self):
        model, buf = self.identity_optimum_setup()
        before = model.flat_params()
        fit_bic(model, buf, {1}, BiasFitConfig(epochs=50), np.random.default_rng(9))
        np.testing.assert_array_equal(model.flat_params(), before)


class TestFitCbic:
    def symmetric_setup(self):
        # all-correct model with a uniform margin on a balanced buffer: the
        # per-task mass it assigns matches the labels task-wise, so zero
        # offsets are the optimum
        model = linear_model(2.0 * np.eye(4))
        buf = buffer_of(np.eye(4), labels=[0, 1, 2, 3])
        partition = {0: 0, 1: 0, 2: 1, 3: 1}
        return model, buf, partition

    def test_unbiased_model_keeps_zero_offsets(self):
        model, buf, partition = self.symmetric_setup()
        layer = fit_cbic(model, buf, partition,
                         BiasFitConfig(epochs=300, batch_size=2, lr=0.05),
                         np.random.default_rng(10))
        np.testing.assert_allclose(layer.betas, 0.0, atol=0.1)

    def test_first_task_offset_pinned_to_zero(self):
        model = linear_model(np.eye(4), bias=[0, 0, 3.0, 3.0])
        buf = buffer_of(np.eye(4), labels=[0, 1, 2, 3])
        layer = fit_cbic(model, buf, {0: 0, 1: 0, 2: 1, 3: 1},
                         BiasFitConfig(epochs=100, batch_size=4, lr=0.1),
                         np.random.default_rng(11))
        assert layer.betas[0] == 0.0
        assert layer.betas[1] < -0.5  # pushes the over-boosted task down

    def test_single_task_stays_identity(self):
        model = linear_model(np.eye(2))
        buf = buffer_of(np.eye(2), labels=[0, 1])
        layer = fit_cbic(model, buf, {0: 0, 1: 0},
                         BiasFitConfig(epochs=50, batch_size=2, lr=0.1),
                         np.random.default_rng(12))
        np.testing.assert_array_equal(layer.betas, [0.0])
        logits = np.random.default_rng(13).normal(size=(3, 2))
        np.testing.assert_array_equal(layer.apply(logits), logits)

    def test_partial_partition_allowed_during_fitting(self):
        # mid-stream fit: only the first task's classes are mapped
        model = linear_model(np.eye(4))
        buf = buffer_of(np.eye(4)[:2], labels=[0, 1])
        layer = fit_cbic(model, buf, {0: 0, 1: 0},
                         BiasFitConfig(epochs=20, batch_size=2, lr=0.1),
                         np.random.default_rng(14))
        assert layer.betas.shape == (1,)

    def test_class_without_logit_rejected(self):
        # class 9 on a 4-logit model: task 1's offset could never move
        model = linear_model(np.eye(4))
        buf = buffer_of(np.eye(4), labels=[0, 1, 2, 3])
        with pytest.raises(ValueError, match="class id 9 out of range for 4 logits"):
            fit_cbic(model, buf, {0: 0, 1: 0, 2: 0, 3: 0, 9: 1},
                     BiasFitConfig(epochs=5), np.random.default_rng(17))

    def test_backbone_parameters_untouched(self):
        model, buf, partition = self.symmetric_setup()
        before = model.flat_params()
        fit_cbic(model, buf, partition, BiasFitConfig(epochs=50), np.random.default_rng(15))
        np.testing.assert_array_equal(model.flat_params(), before)
