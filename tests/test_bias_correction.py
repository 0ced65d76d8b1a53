"""Tests for the per-class logit shift and its two fits: one shift on the
last task (BiC) and one per task after the first (CBiC)."""

import math

import numpy as np
import pytest

from replay_lab.bias_correction import Correction, fit_bic, fit_cbic
from replay_lab.mlp import Mlp, softmax
from replay_lab.sampling import ReplayBuffer


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def buffer_of(features, labels):
    buf = ReplayBuffer(len(labels), "reservoir", class_count=max(labels) + 1)
    buf.update(np.asarray(features, dtype=float), labels, np.zeros(len(labels)),
               np.random.default_rng(0))
    return buf


def linear_model(weight, bias=None):
    """Single affine layer with exactly the given parameters."""
    weight = np.asarray(weight, dtype=float)
    model = Mlp(list(weight.shape), np.random.default_rng(0))
    model.weights[0][...] = weight
    model.biases[0][...] = 0.0 if bias is None else np.asarray(bias, dtype=float)
    return model


def bic_shift(beta, classes, k):
    """BiC: beta on the given classes, 0 elsewhere."""
    return np.array([beta if c in classes else 0.0 for c in range(k)])


def cbic_shift(betas, partition, k):
    """CBiC: the offset of each class's task, 0 for unmapped classes."""
    return np.array([betas[partition[c]] if c in partition else 0.0 for c in range(k)])


def assert_bitwise_equal(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCorrection:
    """A fitted correction adds the shift of its trick, bit for bit."""

    @pytest.mark.parametrize("kind", ["random", "all-classes"])
    @pytest.mark.parametrize("seed", range(5))
    def test_bic_matches_the_reference(self, seed, kind):
        rng, k, model, buf = random_fit_case(seed)
        classes = bic_classes(kind, k, rng)
        corr = fit_bic(model, buf, classes)
        s = corr.summary
        assert s["type"] == "bic" and s["classes"] == sorted(classes)
        logits = rng.normal(scale=5.0, size=(7, k))
        copy = logits.copy()
        assert_bitwise_equal(corr.apply(logits), logits + bic_shift(s["beta"], classes, k))
        assert_bitwise_equal(logits, copy)

    @pytest.mark.parametrize("kind", ["random", "unmapped", "empty-task"])
    @pytest.mark.parametrize("seed", range(5))
    def test_cbic_matches_the_reference(self, seed, kind):
        rng, k, model, buf = random_fit_case(seed)
        partition = cbic_partition(kind, k, rng)
        corr = fit_cbic(model, buf, partition)
        s = corr.summary
        assert s["type"] == "cbic" and s["betas"][0] == 0.0
        assert len(s["betas"]) == max(partition.values()) + 1
        logits = rng.normal(scale=5.0, size=(7, k))
        assert_bitwise_equal(corr.apply(logits), logits + cbic_shift(s["betas"], partition, k))
        # an unmapped class is left alone, as the fit leaves it
        unmapped = [c for c in range(k) if c not in partition]
        assert_bitwise_equal(corr.apply(logits)[:, unmapped], logits[:, unmapped])

    @pytest.mark.parametrize("fit, arg", [(fit_bic, {1, 3}),
                                          (fit_cbic, {0: 0, 1: 0, 2: 1, 3: 2})])
    @pytest.mark.parametrize("width", [3, 5])
    def test_wrong_logit_width_rejected(self, fit, arg, width):
        model = linear_model(np.random.default_rng(1).normal(size=(6, 4)))
        buf = buffer_of(np.eye(6), labels=[0, 1, 2, 3, 0, 1])
        corr = fit(model, buf, arg)
        with pytest.raises(ValueError, match=f"{width} logits for a correction of 4 classes"):
            corr.apply(np.zeros((2, width)))

    def test_hand_computed_example(self):
        corr = Correction(np.array([0.0, 0.0, -1.0, -1.0]), {})
        np.testing.assert_array_equal(corr.apply(np.array([1.0, 2.0, 3.0, 4.0])),
                                      [1.0, 2.0, 2.0, 3.0])

    def test_common_shift_leaves_predictions_unchanged(self):
        logits = np.random.default_rng(3).normal(size=(10, 4))
        shift = np.array([0.2, 0.2, -0.7, -0.7])
        a = Correction(shift, {})
        b = Correction(shift + 5.0, {})
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
        # the gradient at zero shift is zero up to rounding, below GRAD_TOL,
        # so the fit takes no step
        model, buf = self.identity_optimum_setup()
        corr = fit_bic(model, buf, {1})
        assert corr.summary["iterations"] == 0 and corr.summary["beta"] == 0.0
        assert corr.summary["ce_after"] == corr.summary["ce_before"]

    def test_biased_model_loss_decreases(self):
        shift = 2.5
        model = linear_model(3.0 * np.eye(4), bias=[0, 0, shift, shift])
        buf = buffer_of(np.eye(4), labels=[0, 1, 2, 3])
        corr = fit_bic(model, buf, {2, 3})

        feats, labels = buf.as_arrays()
        logits, _ = model.forward(feats)
        assert buffer_ce(corr.apply(logits), labels) < buffer_ce(logits, labels)
        # balanced labels: the shift cancels the bias exactly
        assert corr.summary["beta"] == pytest.approx(-shift, abs=1e-7)

    @pytest.mark.parametrize("classes", [set(), {2}])
    def test_bad_class_set_rejected(self, classes):
        # empty, or a class id past the model's two logits
        model, buf = self.identity_optimum_setup()
        with pytest.raises(ValueError):
            fit_bic(model, buf, classes)

    def test_negative_class_rejected(self):
        model, buf = self.identity_optimum_setup()
        with pytest.raises(ValueError, match="class id -1 out of range for 2 logits"):
            fit_bic(model, buf, {-1})

    def test_backbone_parameters_untouched(self):
        model, buf = self.identity_optimum_setup()
        before = model.params.copy()
        fit_bic(model, buf, {1})
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
        corr = fit_cbic(model, buf, partition)
        np.testing.assert_allclose(corr.summary["betas"], 0.0, atol=1e-7)

    def test_first_task_offset_pinned_to_zero(self):
        model = linear_model(np.eye(4), bias=[0, 0, 3.0, 3.0])
        buf = buffer_of(np.eye(4), labels=[0, 1, 2, 3])
        corr = fit_cbic(model, buf, {0: 0, 1: 0, 2: 1, 3: 1})
        assert corr.summary["betas"][0] == 0.0
        # the over-boosted task is pushed down by exactly its boost
        assert corr.summary["betas"][1] == pytest.approx(-3.0, abs=1e-7)

    def test_single_task_stays_identity(self, monkeypatch):
        model = linear_model(np.eye(2))
        buf = buffer_of(np.eye(2), labels=[0, 1])
        forwards = count_forwards(monkeypatch)
        corr = fit_cbic(model, buf, {0: 0, 1: 0})
        assert forwards == []
        assert corr.summary["betas"] == [0.0] and corr.summary["iterations"] == 0
        logits = np.random.default_rng(13).normal(size=(3, 2))
        np.testing.assert_array_equal(corr.apply(logits), logits)

    def test_partial_partition_allowed_during_fitting(self):
        # mid-stream fit: only the first task's classes are mapped
        model = linear_model(np.eye(4))
        buf = buffer_of(np.eye(4)[:2], labels=[0, 1])
        corr = fit_cbic(model, buf, {0: 0, 1: 0})
        assert len(corr.summary["betas"]) == 1

    def test_class_without_logit_rejected(self):
        # class 9 on a 4-logit model: task 1's offset could never move
        model = linear_model(np.eye(4))
        buf = buffer_of(np.eye(4), labels=[0, 1, 2, 3])
        with pytest.raises(ValueError, match="class id 9 out of range for 4 logits"):
            fit_cbic(model, buf, {0: 0, 1: 0, 2: 0, 3: 0, 9: 1})

    def test_negative_class_rejected(self):
        # class -1 would map onto logit 3 and leave task 1's offset stuck
        model = linear_model(np.eye(4))
        buf = buffer_of(np.eye(4), labels=[0, 1, 2, 3])
        with pytest.raises(ValueError, match="class id -1 out of range for 4 logits"):
            fit_cbic(model, buf, {0: 0, 1: 0, 2: 0, 3: 0, -1: 1})

    def test_empty_partition_rejected(self, monkeypatch):
        model = linear_model(np.eye(4))
        buf = buffer_of(np.eye(4), labels=[0, 1, 2, 3])
        forwards = count_forwards(monkeypatch)
        with pytest.raises(ValueError, match="task_partition must be non-empty"):
            fit_cbic(model, buf, {})
        assert forwards == []

    def test_negative_task_rejected(self):
        # task -1 would give class 2 the last task's offset, betas[-1]
        model = linear_model(np.eye(4))
        buf = buffer_of(np.eye(4), labels=[0, 1, 2, 3])
        with pytest.raises(ValueError, match="task id -1 is negative"):
            fit_cbic(model, buf, {0: 0, 1: 0, 2: -1, 3: 1})

    def test_backbone_parameters_untouched(self):
        model, buf, partition = self.symmetric_setup()
        before = model.params.copy()
        fit_cbic(model, buf, partition)
        np.testing.assert_array_equal(model.params, before)


# -- the fit against the optimum of the full-softmax loss ----------------------

def random_fit_case(seed, scale=None):
    """A buffer of n one-hot rows whose logits under a linear model are
    uniform in [-scale, scale] (k 2-8, n 3-60, scale at most 10 unless
    given), with random labels."""
    rng = np.random.default_rng(seed)
    k, n = int(rng.integers(2, 9)), int(rng.integers(3, 61))
    scale = rng.uniform(0.1, 10.0) if scale is None else scale
    model = linear_model(rng.uniform(-scale, scale, size=(n, k)))
    buf = buffer_of(np.eye(n), labels=rng.integers(0, k, n).tolist())
    return rng, k, model, buf


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
    """Mean cross-entropy over every logit, stable at any logit scale."""
    lse = np.logaddexp.reduce(logits, axis=1)
    return float((lse - logits[np.arange(labels.size), labels]).mean())


def assert_full_softmax_optimum(model, buf, params, shift_of, summary):
    """``params`` minimise the buffer cross-entropy over all k logits under
    ``shift_of(params)``: each parameter's central-difference gradient is
    about 0, the loss is no higher than at zero shift, and the summary
    reports both losses."""
    feats, labels = buf.as_arrays()
    logits, _ = model.forward(feats)
    params = np.asarray(params, dtype=float)

    def loss(p):
        return buffer_ce(logits + shift_of(p), labels)

    h = 1e-5
    for i in range(params.size):
        e = np.zeros(params.size)
        e[i] = h
        assert abs(loss(params + e) - loss(params - e)) / (2 * h) <= 1e-6, (i, params)
    at_zero = loss(np.zeros(params.size))
    assert loss(params) <= at_zero
    assert summary["ce_before"] == pytest.approx(at_zero, rel=1e-12, abs=1e-12)
    assert summary["ce_after"] == pytest.approx(loss(params), rel=1e-12, abs=1e-12)
    # at logit scale 300 rounding can end the line search just above GRAD_TOL
    assert summary["grad_max_norm"] <= 1e-6


def assert_bic_optimum(model, buf, classes):
    s = fit_bic(model, buf, classes).summary
    k = model.layer_dims[-1]
    assert_full_softmax_optimum(model, buf, [s["beta"]],
                                lambda p: bic_shift(p[0], classes, k), s)


def assert_cbic_optimum(model, buf, partition):
    s = fit_cbic(model, buf, partition).summary
    k = model.layer_dims[-1]
    if len(s["betas"]) == 1:       # only task 0: nothing is fitted
        assert s["ce_before"] is None and s["iterations"] == 0
        return
    # task 0 is pinned: the free parameters are the later tasks' offsets
    assert_full_softmax_optimum(model, buf, s["betas"][1:],
                                lambda p: cbic_shift(np.append(0.0, p), partition, k), s)


class TestFitIsTheFullSoftmaxOptimum:
    """The fit works on each row's per-group log-sum-exps plus one of the
    rest; its shifts must still zero the gradient of the cross-entropy over
    every logit, computed here without that reduction."""

    @pytest.mark.parametrize("scale", [None, 300.0])
    @pytest.mark.parametrize("kind", ["random", "all-classes"])
    @pytest.mark.parametrize("seed", range(8))
    def test_bic(self, seed, kind, scale):
        rng, k, model, buf = random_fit_case(seed, scale)
        assert_bic_optimum(model, buf, bic_classes(kind, k, rng))

    @pytest.mark.parametrize("scale", [None, 300.0])
    @pytest.mark.parametrize("kind", ["random", "unmapped", "empty-task"])
    @pytest.mark.parametrize("seed", range(8))
    def test_cbic(self, seed, kind, scale):
        rng, k, model, buf = random_fit_case(seed, scale)
        assert_cbic_optimum(model, buf, cbic_partition(kind, k, rng))

    @pytest.mark.parametrize("seed", range(6))
    def test_underflowing_group(self, seed):
        # One labelled class sits 1000 below every other logit, so its
        # probability is exactly 0 on every row and the Hessian is singular
        # in its group's shift: the damping keeps the step finite.
        rng, k, model, buf = random_fit_case(seed)
        low = int(buf.as_arrays()[1][0])
        model.biases[0][low] -= 1000.0
        assert_bic_optimum(model, buf, {low})
        partition = {c: int(rng.integers(0, 3)) for c in range(k)}
        partition[low] = 3
        assert_cbic_optimum(model, buf, partition)


def count_forwards(monkeypatch):
    """Record the input shape of every later ``Mlp.forward``."""
    forwards = []
    forward = Mlp.forward

    def counting_forward(self, inputs):
        forwards.append(inputs.shape)
        return forward(self, inputs)
    monkeypatch.setattr(Mlp, "forward", counting_forward)
    return forwards


@pytest.mark.parametrize("fit, arg", [(fit_bic, {1, 3}),
                                      (fit_cbic, {0: 0, 1: 0, 2: 1, 3: 2})])
def test_one_forward_per_fit(monkeypatch, fit, arg):
    model = linear_model(np.random.default_rng(1).normal(size=(6, 4)))
    buf = buffer_of(np.eye(6), labels=[0, 1, 2, 3, 0, 1])
    forwards = count_forwards(monkeypatch)
    corr = fit(model, buf, arg)
    assert corr.summary["iterations"] > 0
    assert forwards == [(6, 6)]
