"""Tests for the from-scratch MLP: shapes, forward, loss, gradients, SGD."""

import copy
import math
import pickle

import numpy as np
import pytest

from replay_lab.mlp import Mlp, softmax, softmax_cross_entropy


def tiny_model(dims, seed=0):
    return Mlp(dims, np.random.default_rng(seed))


class TestInit:
    def test_parameter_count_of_reference_architecture(self):
        model = tiny_model([784, 256, 256, 10])
        expected = (784 * 256 + 256) + (256 * 256 + 256) + (256 * 10 + 10)
        assert expected == 269_322
        assert model.params.shape == model.grads.shape == (expected,)

    def test_biases_start_at_zero(self):
        model = tiny_model([5, 7, 3])
        for b in model.biases:
            np.testing.assert_array_equal(b, 0.0)

    def test_same_seed_gives_bit_identical_parameters(self):
        a = tiny_model([6, 4, 3], seed=9)
        b = tiny_model([6, 4, 3], seed=9)
        np.testing.assert_array_equal(a.params, b.params)

    def test_grads_start_at_zero(self):
        model = tiny_model([4, 3])
        np.testing.assert_array_equal(model.grads, 0.0)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            tiny_model([5])
        with pytest.raises(ValueError):
            tiny_model([5, 0, 2])


class TestForward:
    def test_zero_parameters_give_zero_logits(self):
        model = tiny_model([4, 6, 3])
        model.params[:] = 0.0
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
            for layer in range(len(model.weights)):
                w, b = model.weights[layer], model.biases[layer]
                out = []
                for j in range(w.shape[1]):
                    s = b[j]
                    for i in range(w.shape[0]):
                        s += vec[i] * w[i, j]
                    if layer < len(model.weights) - 1:
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

    def test_uint8_pixels_are_read_as_k_over_255_bitwise(self):
        model = tiny_model([6, 5, 3], seed=5)
        pixels = np.random.default_rng(3).integers(0, 256, size=(4, 6), dtype=np.uint8)
        pixels[0, :2] = [0, 255]
        logits, cache = model.forward(pixels)
        ref_logits, ref_cache = model.forward(pixels / 255.0)
        assert cache["activations"][0].dtype == np.float64
        assert cache["activations"][0].tobytes() == ref_cache["activations"][0].tobytes()
        assert logits.tobytes() == ref_logits.tobytes()
        dlogits = np.random.default_rng(4).normal(size=logits.shape)
        model.backward(cache, dlogits)
        grads = model.grads.copy()
        model.backward(ref_cache, dlogits)
        assert grads.tobytes() == model.grads.tobytes()

    def test_float_inputs_pass_through_unscaled(self):
        model = tiny_model([6, 2], seed=6)
        x = np.random.default_rng(5).integers(0, 256, size=(3, 6)).astype(float)
        logits, cache = model.forward(x)
        assert cache["activations"][0] is x
        np.testing.assert_array_equal(logits, x @ model.weights[0] + model.biases[0])


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
        np.testing.assert_array_equal(model.grads, 0.0)

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
        fresh = copy.deepcopy(model)
        rng = np.random.default_rng(4)

        def backward_on(m, batch):
            logits, cache = m.forward(batch)
            _, _, dl = softmax_cross_entropy(logits, np.arange(len(batch)) % 2)
            m.backward(cache, dl)

        second = rng.uniform(size=(5, 3))
        backward_on(model, rng.uniform(size=(2, 3)))
        backward_on(model, second)
        backward_on(fresh, second)
        np.testing.assert_array_equal(model.grads, fresh.grads)

    def test_missing_cache_rejected(self):
        model = tiny_model([3, 2])
        with pytest.raises(ValueError):
            model.backward(None, np.zeros((1, 2)))


class TestSgdStep:
    def test_zero_lr_leaves_parameters_unchanged(self):
        model = tiny_model([3, 2], seed=2)
        before = model.params.copy()
        model.weight_grads[0][:] = 1.0
        model.sgd_step(0.0)
        np.testing.assert_array_equal(model.params, before)

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


class TestParameterViews:
    def test_layout_is_every_weight_matrix_then_every_bias(self):
        model = tiny_model([4, 3, 2], seed=6)
        expected = np.concatenate([w.ravel() for w in model.weights]
                                  + [b.ravel() for b in model.biases])
        np.testing.assert_array_equal(model.params, expected)
        assert all(np.shares_memory(v, model.params) for v in model.weights + model.biases)
        assert all(np.shares_memory(v, model.grads)
                   for v in model.weight_grads + model.bias_grads)

    def test_write_to_params_shows_in_weights_and_forward(self):
        model = tiny_model([3, 2], seed=6)
        x = np.array([[1.0, 2.0, 3.0]])
        model.params[:] = 0.0
        model.params[0] = 1.5  # weights[0][0, 0]: input 0 -> output 0
        assert model.weights[0][0, 0] == 1.5
        np.testing.assert_array_equal(model.forward(x)[0], [[1.5, 0.0]])

    def test_backward_fills_grads(self):
        model = tiny_model([4, 3, 2], seed=6)
        logits, cache = model.forward(np.random.default_rng(1).uniform(size=(5, 4)))
        _, _, dlogits = softmax_cross_entropy(logits, [0, 1, 0, 1, 1])
        model.backward(cache, dlogits)
        expected = np.concatenate([g.ravel() for g in model.weight_grads]
                                  + [g.ravel() for g in model.bias_grads])
        assert np.any(model.grads != 0.0)
        np.testing.assert_array_equal(model.grads, expected)

    @pytest.mark.parametrize("duplicate", [copy.deepcopy,
                                           lambda m: pickle.loads(pickle.dumps(m))],
                             ids=["deepcopy", "pickle"])
    def test_copy_shares_no_memory_with_the_original(self, duplicate):
        model = tiny_model([4, 3, 2], seed=6)
        dup = duplicate(model)
        np.testing.assert_array_equal(dup.params, model.params)
        mine = (model.params, model.grads)
        for view in (dup.params, dup.grads, *dup.weights, *dup.biases,
                     *dup.weight_grads, *dup.bias_grads):
            assert not any(np.shares_memory(view, a) for a in mine)
        dup.params[:] = 7.0
        dup.weights[0][0, 0] = 8.0
        assert not np.any(model.params == 7.0) and model.weights[0][0, 0] != 8.0
        assert dup.params[0] == 8.0

    def test_views_cannot_be_rebound(self):
        model = tiny_model([4, 3, 2], seed=6)
        with pytest.raises(TypeError):
            model.weights[0] = np.zeros((4, 3))
        with pytest.raises(TypeError):
            model.bias_grads[1] = np.zeros(2)
