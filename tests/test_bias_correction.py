"""Tests for the per-class logit correction and its two fits: affine on the
last task (BiC) and additive per task (CBiC)."""

import math
from collections import Counter

import numpy as np
import pytest

from replay_lab.bias_correction import BiasFitConfig, Correction, fit_bic, fit_cbic
from replay_lab.mlp import Mlp, softmax
from replay_lab.sampling import ReplayBuffer


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def buffer_of(features, labels):
    buf = ReplayBuffer(len(labels), "reservoir", class_count=max(labels) + 1)
    buf.update(np.asarray(features, dtype=float), labels, np.zeros(len(labels)),
               np.random.default_rng(0))
    return buf


def fit_config(epochs):
    """The run defaults of the bias fit (``TrainConfig.bias_*``), ``epochs`` aside."""
    return BiasFitConfig(epochs=epochs, batch_size=32, lr=0.01)


def linear_model(weight, bias=None):
    """Single affine layer with exactly the given parameters."""
    weight = np.asarray(weight, dtype=float)
    model = Mlp(list(weight.shape), np.random.default_rng(0))
    model.weights[0][...] = weight
    model.biases[0][...] = 0.0 if bias is None else np.asarray(bias, dtype=float)
    return model


def reference_bic(logits, alpha, beta, classes):
    """BiC: alpha * o + beta on the given classes, identity elsewhere."""
    out = logits.copy()
    idx = sorted(classes)
    out[:, idx] = alpha * logits[:, idx] + beta
    return out


def reference_cbic(logits, betas, partition):
    """CBiC: o + betas[task] on every class, task 0's offset for unmapped ones."""
    return logits + np.asarray(betas)[[partition.get(c, 0) for c in range(logits.shape[1])]]


def assert_bitwise_equal(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCorrection:
    """A fitted correction applies the formula of its trick, bit for bit."""

    @pytest.mark.parametrize("kind", ["random", "all-classes"])
    @pytest.mark.parametrize("seed", range(5))
    def test_bic_matches_the_reference(self, seed, kind):
        rng, k, model, buf, config = random_fit_case(seed)
        classes = bic_classes(kind, k, rng)
        corr = fit_bic(model, buf, classes, config, rng)
        s = corr.summary
        assert s["type"] == "bic" and s["classes"] == sorted(classes)
        logits = rng.normal(scale=5.0, size=(7, k))
        copy = logits.copy()
        assert_bitwise_equal(corr.apply(logits),
                             reference_bic(logits, s["alpha"], s["beta"], classes))
        assert_bitwise_equal(logits, copy)

    @pytest.mark.parametrize("kind", ["random", "unmapped", "empty-task"])
    @pytest.mark.parametrize("seed", range(5))
    def test_cbic_matches_the_reference(self, seed, kind):
        rng, k, model, buf, config = random_fit_case(seed)
        partition = cbic_partition(kind, k, rng)
        corr = fit_cbic(model, buf, partition, config, rng)
        s = corr.summary
        assert s["type"] == "cbic" and s["betas"][0] == 0.0
        assert len(s["betas"]) == max(partition.values()) + 1
        logits = rng.normal(scale=5.0, size=(7, k))
        assert_bitwise_equal(corr.apply(logits), reference_cbic(logits, s["betas"], partition))
        # an unmapped class is left alone, as the fit leaves it
        unmapped = [c for c in range(k) if c not in partition]
        assert_bitwise_equal(corr.apply(logits)[:, unmapped], logits[:, unmapped])

    @pytest.mark.parametrize("fit, arg", [(fit_bic, {1, 3}),
                                          (fit_cbic, {0: 0, 1: 0, 2: 1, 3: 2})])
    def test_zero_epochs_is_the_identity(self, fit, arg):
        model = linear_model(np.random.default_rng(1).normal(size=(6, 4)))
        buf = buffer_of(np.eye(6), labels=[0, 1, 2, 3, 0, 1])
        corr = fit(model, buf, arg, fit_config(0), np.random.default_rng(2))
        logits = np.random.default_rng(3).normal(size=(5, 4))
        assert_bitwise_equal(corr.apply(logits), logits)

    @pytest.mark.parametrize("fit, arg", [(fit_bic, {1, 3}),
                                          (fit_cbic, {0: 0, 1: 0, 2: 1, 3: 2})])
    @pytest.mark.parametrize("width", [3, 5])
    def test_wrong_logit_width_rejected(self, fit, arg, width):
        model = linear_model(np.random.default_rng(1).normal(size=(6, 4)))
        buf = buffer_of(np.eye(6), labels=[0, 1, 2, 3, 0, 1])
        corr = fit(model, buf, arg, fit_config(3), np.random.default_rng(2))
        with pytest.raises(ValueError, match=f"{width} logits for a correction of 4 classes"):
            corr.apply(np.zeros((2, width)))

    def test_hand_computed_example(self):
        corr = Correction(np.array([1.0, 1.0, 0.5, 0.5]), np.array([0.0, 0.0, -1.0, -1.0]), {})
        np.testing.assert_array_equal(corr.apply(np.array([1.0, 2.0, 3.0, 4.0])),
                                      [1.0, 2.0, 0.5, 1.0])

    def test_common_shift_leaves_predictions_unchanged(self):
        logits = np.random.default_rng(3).normal(size=(10, 4))
        shift = np.array([0.2, 0.2, -0.7, -0.7])
        a = Correction(np.ones(4), shift, {})
        b = Correction(np.ones(4), shift + 5.0, {})
        np.testing.assert_array_equal(np.argmax(a.apply(logits), axis=1),
                                      np.argmax(b.apply(logits), axis=1))
        np.testing.assert_allclose(softmax(a.apply(logits)),
                                   softmax(b.apply(logits)), atol=1e-12)


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
        corr = fit_bic(model, buf, {1}, BiasFitConfig(epochs=300, batch_size=2, lr=0.05),
                       np.random.default_rng(5))
        assert abs(corr.summary["alpha"] - 1.0) <= 0.1
        assert abs(corr.summary["beta"] - 0.0) <= 0.1

    def test_identity_is_exactly_stationary_under_full_batches(self):
        model, buf = self.identity_optimum_setup()
        corr = fit_bic(model, buf, {1}, BiasFitConfig(epochs=200, batch_size=4, lr=0.1),
                       np.random.default_rng(6))
        assert corr.summary["alpha"] == pytest.approx(1.0, abs=1e-9)
        assert corr.summary["beta"] == pytest.approx(0.0, abs=1e-9)

    def test_biased_model_loss_decreases(self):
        shift = 2.5
        model = linear_model(3.0 * np.eye(4), bias=[0, 0, shift, shift])
        buf = buffer_of(np.eye(4), labels=[0, 1, 2, 3])
        corr = fit_bic(model, buf, {2, 3},
                       BiasFitConfig(epochs=100, batch_size=4, lr=0.1),
                       np.random.default_rng(7))

        feats, labels = buf.as_arrays()
        logits, _ = model.forward(feats)

        def buffer_ce(q):
            probs = softmax(q)
            return float(-np.log(probs[np.arange(4), labels]).mean())

        assert buffer_ce(corr.apply(logits)) < buffer_ce(logits)

    def test_zero_epochs_returns_identity(self):
        model, buf = self.identity_optimum_setup()
        corr = fit_bic(model, buf, {1}, fit_config(0), np.random.default_rng(8))
        assert (corr.summary["alpha"], corr.summary["beta"]) == (1.0, 0.0)

    @pytest.mark.parametrize("classes", [set(), {2}])
    def test_bad_class_set_rejected(self, classes):
        # empty, or a class id past the model's two logits
        model, buf = self.identity_optimum_setup()
        with pytest.raises(ValueError):
            fit_bic(model, buf, classes, fit_config(50), np.random.default_rng(16))

    def test_negative_class_rejected(self):
        model, buf = self.identity_optimum_setup()
        with pytest.raises(ValueError, match="class id -1 out of range for 2 logits"):
            fit_bic(model, buf, {-1}, fit_config(50), np.random.default_rng(16))

    def test_backbone_parameters_untouched(self):
        model, buf = self.identity_optimum_setup()
        before = model.params.copy()
        fit_bic(model, buf, {1}, fit_config(50), np.random.default_rng(9))
        np.testing.assert_array_equal(model.params, before)


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
        corr = fit_cbic(model, buf, partition,
                        BiasFitConfig(epochs=300, batch_size=2, lr=0.05),
                        np.random.default_rng(10))
        np.testing.assert_allclose(corr.summary["betas"], 0.0, atol=0.1)

    def test_first_task_offset_pinned_to_zero(self):
        model = linear_model(np.eye(4), bias=[0, 0, 3.0, 3.0])
        buf = buffer_of(np.eye(4), labels=[0, 1, 2, 3])
        corr = fit_cbic(model, buf, {0: 0, 1: 0, 2: 1, 3: 1},
                        BiasFitConfig(epochs=100, batch_size=4, lr=0.1),
                        np.random.default_rng(11))
        assert corr.summary["betas"][0] == 0.0
        assert corr.summary["betas"][1] < -0.5  # pushes the over-boosted task down

    def test_single_task_stays_identity(self):
        model = linear_model(np.eye(2))
        buf = buffer_of(np.eye(2), labels=[0, 1])
        corr = fit_cbic(model, buf, {0: 0, 1: 0},
                        BiasFitConfig(epochs=50, batch_size=2, lr=0.1),
                        np.random.default_rng(12))
        np.testing.assert_array_equal(corr.summary["betas"], [0.0])
        logits = np.random.default_rng(13).normal(size=(3, 2))
        np.testing.assert_array_equal(corr.apply(logits), logits)

    def test_partial_partition_allowed_during_fitting(self):
        # mid-stream fit: only the first task's classes are mapped
        model = linear_model(np.eye(4))
        buf = buffer_of(np.eye(4)[:2], labels=[0, 1])
        corr = fit_cbic(model, buf, {0: 0, 1: 0},
                        BiasFitConfig(epochs=20, batch_size=2, lr=0.1),
                        np.random.default_rng(14))
        assert len(corr.summary["betas"]) == 1

    def test_class_without_logit_rejected(self):
        # class 9 on a 4-logit model: task 1's offset could never move
        model = linear_model(np.eye(4))
        buf = buffer_of(np.eye(4), labels=[0, 1, 2, 3])
        with pytest.raises(ValueError, match="class id 9 out of range for 4 logits"):
            fit_cbic(model, buf, {0: 0, 1: 0, 2: 0, 3: 0, 9: 1},
                     fit_config(5), np.random.default_rng(17))

    def test_negative_class_rejected(self):
        # class -1 would map onto logit 3 and leave task 1's offset stuck
        model = linear_model(np.eye(4))
        buf = buffer_of(np.eye(4), labels=[0, 1, 2, 3])
        with pytest.raises(ValueError, match="class id -1 out of range for 4 logits"):
            fit_cbic(model, buf, {0: 0, 1: 0, 2: 0, 3: 0, -1: 1},
                     fit_config(5), np.random.default_rng(17))

    def test_negative_task_rejected(self):
        # task -1 would give class 2 the last task's offset, betas[-1]
        model = linear_model(np.eye(4))
        buf = buffer_of(np.eye(4), labels=[0, 1, 2, 3])
        with pytest.raises(ValueError, match="task id -1 is negative"):
            fit_cbic(model, buf, {0: 0, 1: 0, 2: -1, 3: 1},
                     fit_config(5), np.random.default_rng(17))

    def test_backbone_parameters_untouched(self):
        model, buf, partition = self.symmetric_setup()
        before = model.params.copy()
        fit_cbic(model, buf, partition, fit_config(50), np.random.default_rng(15))
        np.testing.assert_array_equal(model.params, before)


# -- the fit against the full-softmax minibatch loop ---------------------------

def reference_descend(model, buffer, params, corrected, grad, config, rng):
    """The fit's minibatch loop over the full ``(n, k)`` logits: softmax of
    every corrected logit, minus the one-hot label, mapped to the gradient of
    ``params`` by ``grad``."""
    feats, labels = buffer.as_arrays()
    logits, _ = model.forward(feats)
    for _ in range(config.epochs):
        order = rng.permutation(logits.shape[0])
        for start in range(0, order.size, config.batch_size):
            rows = order[start:start + config.batch_size]
            o = logits[rows]
            dq = softmax(corrected(params, o))
            dq[np.arange(rows.size), labels[rows]] -= 1.0
            dq /= rows.size
            params -= config.lr * grad(dq, o)
    return params


def reference_fit_bic(model, buffer, classes, config, rng):
    idx = sorted(classes)

    def corrected(p, o):
        q = o.copy()
        q[:, idx] = p[0] * o[:, idx] + p[1]
        return q

    def grad(dq, o):
        return np.array([(dq[:, idx] * o[:, idx]).sum(), dq[:, idx].sum()])

    return reference_descend(model, buffer, np.array([1.0, 0.0]), corrected, grad, config, rng)


def reference_fit_cbic(model, buffer, partition, config, rng):
    k = model.layer_dims[-1]
    n_tasks = max(partition.values()) + 1
    mapped = np.array([c in partition for c in range(k)])
    task_idx = np.array([partition.get(c, 0) for c in range(k)])

    def corrected(betas, o):
        return o + np.where(mapped, betas[task_idx], 0.0)

    def grad(dq, o):
        d_betas = np.zeros(n_tasks)
        np.add.at(d_betas, task_idx[mapped], dq.sum(axis=0)[mapped])
        d_betas[0] = 0.0
        return d_betas

    return reference_descend(model, buffer, np.zeros(n_tasks), corrected, grad, config, rng)


def random_fit_case(seed, scale=None):
    """A buffer of n one-hot rows whose logits under a linear model are
    uniform in [-scale, scale] (k 2-8, n 3-60, scale at most 10 unless
    given), with random labels and a random minibatch size (1-8)."""
    rng = np.random.default_rng(seed)
    k, n = int(rng.integers(2, 9)), int(rng.integers(3, 61))
    scale = rng.uniform(0.1, 10.0) if scale is None else scale
    model = linear_model(rng.uniform(-scale, scale, size=(n, k)))
    buf = buffer_of(np.eye(n), labels=rng.integers(0, k, n).tolist())
    config = BiasFitConfig(epochs=int(rng.integers(1, 21)), batch_size=int(rng.integers(1, 9)),
                           lr=float(rng.choice([0.01, 0.05, 0.1])))
    return rng, k, model, buf, config


def bic_classes(kind, k, rng):
    if kind == "all-classes":      # every logit is corrected: no rest
        return set(range(k))
    return set(rng.choice(k, int(rng.integers(1, k)), replace=False).tolist())


def cbic_partition(kind, k, rng):
    if kind == "unmapped":         # mid-stream: the last classes have no task yet
        mapped = int(rng.integers(1, k))
        return {c: int(rng.integers(0, 3)) for c in range(mapped)}
    if kind == "empty-task":       # task 1 has no classes
        return {c: 0 if c < k // 2 else 2 for c in range(k)}
    return {c: int(rng.integers(0, 4)) for c in range(k)}


def buffer_ce(logits, labels):
    """Mean cross-entropy, stable at any logit scale."""
    lse = np.logaddexp.reduce(logits, axis=1)
    return float((lse - logits[np.arange(labels.size), labels]).mean())


class TestFitMatchesFullSoftmax:
    """The fit works on each row's free logits plus one log-sum-exp of the
    rest; it must make the same draws and reach the same parameters as the
    loop over every logit, up to rounding."""

    @pytest.mark.parametrize("kind", ["random", "all-classes"])
    @pytest.mark.parametrize("seed", range(10))
    def test_bic(self, seed, kind):
        rng, k, model, buf, config = random_fit_case(seed)
        classes = bic_classes(kind, k, rng)
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = reference_fit_bic(model, buf, classes, config, ref_rng)
        corr = fit_bic(model, buf, classes, config, rng)
        s = corr.summary
        np.testing.assert_allclose([s["alpha"], s["beta"]], expected, rtol=0, atol=1e-12)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("kind", ["random", "unmapped", "empty-task"])
    @pytest.mark.parametrize("seed", range(10))
    def test_cbic(self, seed, kind):
        rng, k, model, buf, config = random_fit_case(seed)
        partition = cbic_partition(kind, k, rng)
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = reference_fit_cbic(model, buf, partition, config, ref_rng)
        corr = fit_cbic(model, buf, partition, config, rng)
        assert np.shape(corr.summary["betas"]) == expected.shape
        np.testing.assert_allclose(corr.summary["betas"], expected, rtol=0, atol=1e-12)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("seed", range(6))
    def test_large_logits_stay_finite_and_do_not_raise_the_loss(self, seed):
        # At logit scale 300 both loops lose digits to p - y near p = 1, so
        # they are not compared. The step is sized for such logits: the
        # gradient of alpha grows with them, and at the run's lr of 0.01 the
        # fixed-step descent can overshoot, in either loop.
        rng, k, model, buf, _ = random_fit_case(seed, scale=300.0)
        config = BiasFitConfig(epochs=50, batch_size=32, lr=0.001)
        feats, labels = buf.as_arrays()
        logits, _ = model.forward(feats)
        identity = buffer_ce(logits, labels)
        bic = fit_bic(model, buf, bic_classes("random", k, rng), config,
                      np.random.default_rng(seed))
        cbic = fit_cbic(model, buf, cbic_partition("random", k, rng), config,
                        np.random.default_rng(seed))
        assert np.isfinite([bic.summary["alpha"], bic.summary["beta"]]).all()
        assert np.isfinite(cbic.summary["betas"]).all()
        assert buffer_ce(bic.apply(logits), labels) <= identity
        assert buffer_ce(cbic.apply(logits), labels) <= identity


class CountingRng:
    """A generator that counts the methods the code under test looks up."""

    def __init__(self, rng):
        self.rng, self.calls = rng, Counter()

    def __getattr__(self, name):
        self.calls[name] += 1
        return getattr(self.rng, name)


@pytest.mark.parametrize("fit, arg", [(fit_bic, {1, 3}),
                                      (fit_cbic, {0: 0, 1: 0, 2: 1, 3: 2})])
@pytest.mark.parametrize("epochs", [0, 1, 7])
def test_one_forward_and_one_permutation_per_epoch(monkeypatch, fit, arg, epochs):
    model = linear_model(np.random.default_rng(1).normal(size=(6, 4)))
    buf = buffer_of(np.eye(6), labels=[0, 1, 2, 3, 0, 1])
    forwards = []
    forward = Mlp.forward

    def counting_forward(self, inputs):
        forwards.append(inputs.shape)
        return forward(self, inputs)
    monkeypatch.setattr(Mlp, "forward", counting_forward)
    rng = CountingRng(np.random.default_rng(2))
    fit(model, buf, arg, BiasFitConfig(epochs=epochs, batch_size=4, lr=0.1), rng)
    assert forwards == [(6, 6)]
    assert rng.calls == Counter({"permutation": epochs} if epochs else {})
