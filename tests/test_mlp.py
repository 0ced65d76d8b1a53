"""Tests for the from-scratch MLP: shapes, forward, loss, gradients, SGD."""

import math

import numpy as np
import pytest

from replay_lab.cli import _BrokenReluBackwardMlp
from replay_lab.mlp import (Mlp, finite_difference_grads, gradient_check,
                            softmax, softmax_cross_entropy)


def tiny_model(dims, seed=0):
    return Mlp(dims, np.random.default_rng(seed))


class TestInit:
    def test_parameter_count_of_reference_architecture(self):
        model = tiny_model([784, 256, 256, 10])
        expected = (784 * 256 + 256) + (256 * 256 + 256) + (256 * 10 + 10)
        assert expected == 269_322
        assert model.num_params() == expected

    def test_biases_start_at_zero(self):
        model = tiny_model([5, 7, 3])
        for b in model.biases:
            np.testing.assert_array_equal(b, 0.0)

    def test_same_seed_gives_bit_identical_parameters(self):
        a = tiny_model([6, 4, 3], seed=9)
        b = tiny_model([6, 4, 3], seed=9)
        np.testing.assert_array_equal(a.flat_params(), b.flat_params())

    def test_grads_start_at_zero(self):
        model = tiny_model([4, 3])
        np.testing.assert_array_equal(model.flat_grads(), 0.0)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            tiny_model([5])
        with pytest.raises(ValueError):
            tiny_model([5, 0, 2])


class TestForward:
    def test_zero_parameters_give_zero_logits(self):
        model = tiny_model([4, 6, 3])
        model.set_flat_params(np.zeros(model.num_params()))
        logits, _ = model.forward(np.random.default_rng(0).uniform(size=(5, 4)))
        np.testing.assert_array_equal(logits, 0.0)

    def test_single_affine_layer_is_wx_plus_b(self):
        model = tiny_model([3, 2], seed=4)
        model.biases[0][:] = [0.5, -0.25]
        x = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 0.5]])
        logits, _ = model.forward(x)
        np.testing.assert_allclose(logits, x @ model.weights[0] + model.biases[0],
                                   atol=1e-15)

    def test_matches_independent_straight_line_evaluation(self):
        # Re-evaluate the network with plain per-example, per-unit loops.
        model = tiny_model([4, 5, 3, 2], seed=8)
        x = np.random.default_rng(1).uniform(size=(6, 4))
        logits, _ = model.forward(x)
        for r in range(x.shape[0]):
            vec = list(x[r])
            for layer in range(model.n_layers):
                w, b = model.weights[layer], model.biases[layer]
                out = []
                for j in range(w.shape[1]):
                    s = b[j]
                    for i in range(w.shape[0]):
                        s += vec[i] * w[i, j]
                    if layer < model.n_layers - 1:
                        s = max(s, 0.0)
                    out.append(s)
                vec = out
            np.testing.assert_allclose(logits[r], vec, rtol=1e-12, atol=1e-12)

    def test_forward_is_pure_and_deterministic(self):
        model = tiny_model([4, 4, 2])
        x = np.random.default_rng(2).uniform(size=(3, 4))
        a, _ = model.forward(x)
        b, _ = model.forward(x)
        np.testing.assert_array_equal(a, b)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tiny_model([4, 2]).forward(np.zeros((3, 5)))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        logits = np.zeros((7, 10))
        loss, per, _ = softmax_cross_entropy(logits, np.arange(7) % 10)
        assert loss == pytest.approx(math.log(10), abs=1e-12)
        np.testing.assert_allclose(per, math.log(10), atol=1e-12)

    def test_saturated_correct_prediction_has_negligible_loss(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 30.0
        loss, _, _ = softmax_cross_entropy(logits, [2])
        assert loss < 1e-9

    def test_dlogits_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(4, 6))
        labels = rng.integers(0, 6, size=4)
        _, _, dlogits = softmax_cross_entropy(logits, labels)
        step = 1e-4
        worst = 0.0
        for r in range(4):
            for c in range(6):
                up = logits.copy()
                up[r, c] += step
                down = logits.copy()
                down[r, c] -= step
                num = (softmax_cross_entropy(up, labels)[0]
                       - softmax_cross_entropy(down, labels)[0]) / (2 * step)
                denom = max(abs(num), 1e-8)
                worst = max(worst, abs(dlogits[r, c] - num) / denom)
        assert worst <= 1e-5

    def test_mean_of_per_example_losses_is_the_mean_loss(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(9, 4))
        loss, per, _ = softmax_cross_entropy(logits, rng.integers(0, 4, size=9))
        assert abs(loss - per.mean()) <= 1e-12
        assert np.all(per >= 0)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        probs = softmax(rng.normal(scale=20, size=(50, 8)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_classes_rejected(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 0)), [0, 0])


class TestBackward:
    def test_zero_dlogits_give_zero_grads(self):
        model = tiny_model([4, 3, 2])
        _, cache = model.forward(np.random.default_rng(0).uniform(size=(3, 4)))
        model.backward(cache, np.zeros((3, 2)))
        np.testing.assert_array_equal(model.flat_grads(), 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        dims = [int(rng.integers(2, 8)) for _ in range(int(rng.integers(2, 5)))]
        model = Mlp(dims, rng)
        # nonzero biases keep pre-activations off the ReLU kink, where the
        # subgradient and a finite difference legitimately disagree
        for b in model.biases:
            b[:] = rng.uniform(0.05, 0.2, size=b.shape)
        x = rng.uniform(size=(4, dims[0]))
        y = rng.integers(0, dims[-1], size=4)
        ok, worst = gradient_check(model, x, y)
        assert ok, f"worst residual ratio {worst}"

    def test_dead_relu_unit_gets_zero_weight_gradient(self):
        model = tiny_model([2, 2, 2], seed=3)
        # drive hidden unit 0 permanently negative via its bias
        model.weights[0][:, 0] = 0.0
        model.biases[0][0] = -5.0
        x = np.random.default_rng(0).uniform(size=(6, 2))
        logits, cache = model.forward(x)
        _, _, dlogits = softmax_cross_entropy(logits, [0] * 6)
        model.backward(cache, dlogits)
        np.testing.assert_array_equal(model.weight_grads[0][:, 0], 0.0)
        assert model.bias_grads[0][0] == 0.0

    def test_backward_overwrites_gradients(self):
        model = tiny_model([3, 4, 2], seed=1)
        fresh = model.copy()
        rng = np.random.default_rng(4)

        def backward_on(m, batch):
            logits, cache = m.forward(batch)
            _, _, dl = softmax_cross_entropy(logits, np.arange(len(batch)) % 2)
            m.backward(cache, dl)

        second = rng.uniform(size=(5, 3))
        backward_on(model, rng.uniform(size=(2, 3)))
        backward_on(model, second)
        backward_on(fresh, second)
        np.testing.assert_array_equal(model.flat_grads(), fresh.flat_grads())

    def test_missing_cache_rejected(self):
        model = tiny_model([3, 2])
        with pytest.raises(ValueError):
            model.backward(None, np.zeros((1, 2)))


class TestGradientCheckOnSubclasses:
    def test_copy_keeps_the_subclass(self):
        model = _BrokenReluBackwardMlp([3, 4, 2], np.random.default_rng(0))
        assert type(model.copy()) is _BrokenReluBackwardMlp

    def test_overridden_backward_with_inverted_mask_is_rejected(self):
        rng = np.random.default_rng(5)
        model = _BrokenReluBackwardMlp([6, 8, 5], rng)
        x = rng.uniform(size=(4, 6))
        y = rng.integers(0, 5, size=4)
        ok, worst = gradient_check(model, x, y)
        assert not ok, f"inverted mask passed with worst residual ratio {worst}"


class TestSgdStep:
    def test_zero_lr_leaves_parameters_unchanged(self):
        model = tiny_model([3, 2], seed=2)
        before = model.flat_params()
        model.weight_grads[0][:] = 1.0
        model.sgd_step(0.0)
        np.testing.assert_array_equal(model.flat_params(), before)

    def test_single_parameter_update_rule(self):
        model = tiny_model([1, 1], seed=0)
        w0 = model.weights[0][0, 0]
        model.weight_grads[0][0, 0] = 2.0
        model.sgd_step(0.1)
        assert model.weights[0][0, 0] == pytest.approx(w0 - 0.2, abs=1e-15)

    def test_descent_on_convex_objective_is_monotone(self):
        # Single affine layer + cross-entropy is convex in the parameters.
        model = tiny_model([2, 3], seed=5)
        x = np.random.default_rng(8).uniform(size=(8, 2))
        y = np.random.default_rng(9).integers(0, 3, size=8)
        losses = []
        for _ in range(100):
            logits, cache = model.forward(x)
            loss, _, dl = softmax_cross_entropy(logits, y)
            losses.append(loss)
            model.backward(cache, dl)
            model.sgd_step(0.05)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_descent_on_scalar_quadratic_is_monotone(self):
        # drive f(w) = w^2 by feeding its gradient 2w into the update rule
        model = tiny_model([1, 1], seed=11)
        model.weights[0][0, 0] = 3.0
        values = []
        for _ in range(100):
            w = model.weights[0][0, 0]
            values.append(w * w)
            model.weight_grads[0][0, 0] = 2.0 * w
            model.sgd_step(0.1)
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-15


class TestFlatParams:
    def test_set_flat_params_round_trip(self):
        model = tiny_model([4, 3, 2], seed=6)
        vec = model.flat_params()
        other = tiny_model([4, 3, 2], seed=99)
        other.set_flat_params(vec)
        np.testing.assert_array_equal(other.flat_params(), vec)
        with pytest.raises(ValueError):
            model.set_flat_params(np.zeros(3))


class TestFiniteDifferenceOracle:
    def test_detects_corrupted_gradients(self):
        # Sanity of the checker itself: a sign error must be flagged.
        model = tiny_model([4, 5, 3], seed=10)
        x = np.random.default_rng(11).uniform(size=(4, 4))
        y = np.random.default_rng(12).integers(0, 3, size=4)
        numeric = finite_difference_grads(model, x, y)
        corrupted = -numeric
        tol = 1e-7 + 1e-4 * np.abs(numeric)
        assert np.any(np.abs(corrupted - numeric) > tol)
