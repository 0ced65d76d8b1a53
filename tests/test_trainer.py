"""Tests for the class-incremental training loop and its baselines."""

import copy
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest

from replay_lab import augmentation, trainer
from replay_lab.augmentation import augment
from replay_lab.datasets import Dataset, TaskStream, make_class_il_tasks, \
    synthetic_class_il_stream
from replay_lab.evaluation import average_final_accuracy, task_prediction_distribution
from replay_lab.mlp import Mlp, float64_copy, softmax_cross_entropy
from replay_lab.trainer import (ELRD_FINAL_FRACTION, TrainConfig, ablation_configs,
                                ablation_suite, baseline_config, er_train_step,
                                init_state, method_label, merge_tasks, process_count,
                                run_class_il, run_joint_baseline, _train_one_task)

SMOKE = dict(class_count=4, per_class_train=30, per_class_test=10,
             feature_dim=8, separation=4.0, classes_per_task=2)


def small_stream(seed=0):
    return synthetic_class_il_stream(seed=seed, **SMOKE)


def small_config(**kw):
    defaults = dict(buffer_capacity=12, replay_batch_size=8, stream_batch_size=5,
                    epochs_per_task=1, hidden_dims=(8,), lr0=0.1, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def trick_signature(config):
    """(iba, bic, cbic, elrd, strategy) -- one entry per independent trick
    dimension; consecutive ablation rows differ in exactly one entry."""
    return (config.iba, config.bic, config.cbic, config.elrd, config.strategy)


def run_training(stream, config):
    state = init_state(stream, config)
    infos = []
    for task in stream.tasks:
        infos.extend(_train_one_task(state, task, config))
    return state, infos


class TestConfigValidation:
    def test_brs_lars_exclusive(self):
        with pytest.raises(ValueError):
            small_config(brs=True, lars=True)

    def test_bic_cbic_exclusive(self):
        with pytest.raises(ValueError):
            small_config(bic=True, cbic=True)

    @pytest.mark.parametrize("hidden_dims", [(0,), (8, 0), (-2,)])
    def test_hidden_layer_width_below_one_rejected(self, hidden_dims):
        with pytest.raises(ValueError, match="hidden_dims"):
            small_config(hidden_dims=hidden_dims)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_learning_rate_must_be_positive_and_finite(self, value):
        with pytest.raises(ValueError, match="lr0"):
            small_config(lr0=value)

    def test_strategy_derivation(self):
        assert small_config().strategy == "reservoir"
        assert small_config(brs=True).strategy == "brs"
        assert small_config(lars=True).strategy == "lars"

    def test_method_labels(self):
        assert method_label(small_config(buffer_capacity=0)) == "sgd"
        assert method_label(small_config()) == "er"
        assert method_label(small_config(bic=True, elrd=True)) == "er+bic+elrd"
        assert method_label(small_config(replay_enabled=False, cbic=True)) == "sgd+cbic"


class TestErTrainStep:
    def test_empty_buffer_reduces_to_plain_sgd(self):
        stream = small_stream()
        config = small_config(buffer_capacity=0)
        state = init_state(stream, config)
        task = stream.tasks[0]
        x, y = task.train_features[:5], task.train_labels[:5]

        reference = copy.deepcopy(state.model)
        logits, cache = reference.forward(x)
        _, _, dlogits = softmax_cross_entropy(logits, y)
        reference.backward(cache, dlogits)
        reference.sgd_step(config.lr0)

        info = er_train_step(state, x, y, config)
        assert info.replay_loss == 0.0
        np.testing.assert_array_equal(state.model.params, reference.params)

    @pytest.mark.parametrize("iba", [False, True])
    def test_uint8_stream_keeps_uint8_buffer_rows(self, iba):
        labels = np.repeat(np.arange(4), 5)
        pixels = np.random.default_rng(1).integers(0, 256, size=(20, 16), dtype=np.uint8)
        data = Dataset(pixels, labels, 4)
        stream = make_class_il_tasks(data, data, 2, np.random.default_rng(2))
        config = small_config(iba=iba, aug_stream_enabled=True, aug_max_shift=1,
                              aug_hflip_prob=0.5, image_dims=(4, 4, 1))
        state = init_state(stream, config)
        task = stream.tasks[0]
        for rows in (slice(0, 5), slice(5, 10)):
            er_train_step(state, task.train_features[rows], task.train_labels[rows], config)
        assert state.buffer.features.dtype == np.uint8
        assert np.isfinite(state.model.params).all()

    def test_one_pass_step_matches_two_pass_reference(self, monkeypatch):
        stream = small_stream()
        config = small_config(hidden_dims=(8, 6))
        state = init_state(stream, config)
        task = stream.tasks[0]
        for start in range(0, 15, 5):
            er_train_step(state, task.train_features[start:start + 5],
                          task.train_labels[start:start + 5], config)
        x, y = task.train_features[15:20], task.train_labels[15:20]
        # in float64, the way gradient_check copies a model, so that float32
        # rounding of the two orders of summation does not blur rtol 1e-12
        state.model = float64_copy(state.model)

        # the same draw, worked as two separate batch means by hand
        ref = copy.deepcopy(state)
        _, replay_x, replay_y = ref.buffer.draw_replay_batch(
            config.replay_batch_size, ref.rngs.replay)
        losses, grads = [], []
        for batch, labels in ((x, y), (replay_x, replay_y)):
            logits, cache = ref.model.forward(batch)
            loss, per_item, dlogits = softmax_cross_entropy(logits, labels)
            ref.model.backward(cache, dlogits)
            losses.append((loss, per_item))
            grads.append(ref.model.grads.copy())
        expected = ref.model.params - config.lr0 * (grads[0] + grads[1])

        rows = []
        forward = Mlp.forward

        def counting_forward(self, inputs):
            rows.append(len(inputs))
            return forward(self, inputs)
        monkeypatch.setattr(Mlp, "forward", counting_forward)
        info = er_train_step(state, x, y, config)
        assert rows == [len(y) + config.replay_batch_size]
        np.testing.assert_allclose(state.model.params, expected, rtol=1e-12)
        assert info.stream_loss == pytest.approx(losses[0][0], rel=1e-12)
        assert info.replay_loss == pytest.approx(losses[1][0], rel=1e-12)
        np.testing.assert_allclose(info.per_item_losses, losses[0][1], rtol=1e-12)

    def test_loss_decomposition_sums_exactly(self):
        stream = small_stream()
        config = small_config()
        state, infos = run_training(stream, config)
        for info in infos:
            assert abs(info.total_loss - (info.stream_loss + info.replay_loss)) <= 1e-12

    def test_stream_loss_matches_prestep_model(self):
        stream = small_stream()
        config = small_config()
        state = init_state(stream, config)
        task = stream.tasks[0]
        x, y = task.train_features[:5], task.train_labels[:5]
        before = copy.deepcopy(state.model)
        info = er_train_step(state, x, y, config)
        expected, _, _ = softmax_cross_entropy(before.forward(x)[0], y)
        assert info.stream_loss == pytest.approx(expected, abs=1e-12)

    def test_examples_seen_counts_stream_only(self):
        stream = small_stream()
        config = small_config(epochs_per_task=2)
        state, _ = run_training(stream, config)
        expected = 2 * sum(len(t.train_labels) for t in stream.tasks)
        assert state.examples_seen == expected
        assert state.buffer.seen_count == expected

    def test_lars_refreshes_drawn_loss_scores(self):
        stream = small_stream()
        config = small_config(lars=True, buffer_capacity=6, replay_batch_size=6)
        state = init_state(stream, config)
        task = stream.tasks[0]
        er_train_step(state, task.train_features[:6], task.train_labels[:6], config)
        before = state.buffer.loss.tolist()
        er_train_step(state, task.train_features[6:12], task.train_labels[6:12], config)
        after = state.buffer.loss[:len(before)].tolist()
        assert any(a != b for a, b in zip(after, before))

    def test_empty_batch_rejected(self):
        stream = small_stream()
        config = small_config()
        state = init_state(stream, config)
        with pytest.raises(ValueError):
            er_train_step(state, np.empty((0, 8)), np.empty(0, dtype=int), config)


def assert_elrd_rates(stream, config):
    """The rates start at exactly lr0, fall at every step and end at
    lr0 * ELRD_FINAL_FRACTION; each depends only on the stream examples seen
    before its step."""
    state, infos = run_training(stream, config)
    lrs = [info.lr for info in infos]
    assert lrs[0] == config.lr0
    assert all(b < a for a, b in zip(lrs, lrs[1:]))
    assert lrs[-1] == pytest.approx(config.lr0 * ELRD_FINAL_FRACTION, rel=1e-12)
    seen = np.cumsum([0] + [len(info.per_item_losses) for info in infos[:-1]])
    assert lrs == [config.lr0 * math.exp(int(n) * state.log_decay) for n in seen]


class TestElrdWiring:
    def test_final_step_rate_hits_the_target_fraction(self):
        # a batch of 5 divides each task's 60 training rows
        assert_elrd_rates(small_stream(), small_config(elrd=True))

    # a batch of 7 does not divide a 60-row task, and 100 takes it in one
    # step; the last case trains on 12000 examples
    @pytest.mark.parametrize("per_class, batch, epochs",
                             [(30, 7, 1), (30, 100, 1), (30, 7, 2), (1500, 32, 2)])
    def test_rates_fall_from_lr0_to_the_final_fraction(self, per_class, batch, epochs):
        stream = synthetic_class_il_stream(seed=0, **dict(SMOKE, per_class_train=per_class))
        assert_elrd_rates(stream, small_config(elrd=True, stream_batch_size=batch,
                                               epochs_per_task=epochs))

    def test_schedule_never_resets_at_task_boundaries(self):
        stream = small_stream()
        config = small_config(elrd=True)
        state = init_state(stream, config)
        per_task_lrs = [[i.lr for i in _train_one_task(state, t, config)]
                        for t in stream.tasks]
        flat = [lr for task_lrs in per_task_lrs for lr in task_lrs]
        assert all(b < a for a, b in zip(flat, flat[1:]))
        for prev, nxt in zip(per_task_lrs, per_task_lrs[1:]):
            assert nxt[0] < prev[-1]

    def test_disabled_decay_is_constant(self):
        stream = small_stream()
        _, infos = run_training(stream, small_config(elrd=False))
        assert {info.lr for info in infos} == {0.1}


class TestBaselines:
    def test_capacity_zero_run_equals_sgd_baseline(self):
        stream = small_stream()
        a = run_class_il(stream, small_config(buffer_capacity=0)).to_json_dict()
        b = run_class_il(stream, baseline_config(
            small_config(bic=True, elrd=True, lars=True))).to_json_dict()
        for rep in (a, b):
            rep.pop("wall_clock_seconds")
        assert a == b
        assert a["method"] == "sgd"

    def test_sgd_baseline_is_biased_to_the_last_task(self):
        stream = small_stream()
        report = run_class_il(stream, baseline_config(small_config()))
        dist = np.array(report.task_pred_distribution_raw)
        assert dist.argmax() == stream.n_tasks - 1
        assert report.per_task_accuracy[-1] > report.per_task_accuracy[0]

    def test_single_task_stream_is_plain_supervised_training(self):
        ds_stream = small_stream()
        merged = merge_tasks(ds_stream)
        config = small_config()
        report = run_class_il(merged, config)
        assert len(report.per_task_accuracy) == 1
        assert report.average_accuracy == report.per_task_accuracy[0]

    def test_joint_baseline_evaluates_on_original_tasks(self):
        stream = small_stream()
        report = run_joint_baseline(stream, small_config())
        assert report.method == "joint"
        assert len(report.per_task_accuracy) == stream.n_tasks

    def test_joint_task_distribution_flatter_than_sgd(self):
        from replay_lab.evaluation import kl_to_uniform
        stream = small_stream()
        joint = run_joint_baseline(stream, small_config())
        sgd = run_class_il(stream, baseline_config(small_config()))
        assert kl_to_uniform(joint.task_pred_distribution_raw) < \
            kl_to_uniform(sgd.task_pred_distribution_raw)

    def test_determinism_same_config_same_report(self):
        stream = small_stream()
        config = small_config(lars=True, bic=True, elrd=True)
        a = run_class_il(stream, config).to_json_dict()
        b = run_class_il(stream, config).to_json_dict()
        for rep in (a, b):
            rep.pop("wall_clock_seconds")
        assert a == b

    def test_parameters_bitwise_reproducible(self):
        stream = small_stream()
        config = small_config(brs=True)
        state_a, _ = run_training(stream, config)
        state_b, _ = run_training(stream, config)
        np.testing.assert_array_equal(state_a.model.params, state_b.model.params)

    def test_report_internal_invariants(self):
        stream = small_stream()
        for config in (small_config(), small_config(cbic=True, elrd=True)):
            report = run_class_il(stream, config)
            assert abs(report.average_accuracy
                       - np.mean(report.per_task_accuracy)) <= 1e-12
            assert abs(sum(report.task_pred_distribution) - 1.0) <= 1e-9
            assert abs(sum(report.task_pred_distribution_raw) - 1.0) <= 1e-9
            assert all(0.0 <= a <= 1.0 for a in report.per_task_accuracy)
            assert sum(report.buffer_class_counts.values()) == config.buffer_capacity


class TestDataFlowIsolation:
    def test_test_sets_never_influence_training(self):
        stream = small_stream()
        # same train data, scrambled test sets
        rng = np.random.default_rng(99)
        tampered_tasks = []
        for task in stream.tasks:
            tampered_tasks.append(type(task)(
                class_ids=task.class_ids,
                train_features=task.train_features,
                train_labels=task.train_labels,
                test_features=rng.uniform(size=task.test_features.shape),
                test_labels=task.test_labels,
            ))
        tampered = TaskStream(tasks=tampered_tasks, class_count=stream.class_count)
        config = small_config(lars=True)
        state_a, _ = run_training(stream, config)
        state_b, _ = run_training(tampered, config)
        np.testing.assert_array_equal(state_a.model.params, state_b.model.params)
        assert state_a.buffer.loss.tolist() == state_b.buffer.loss.tolist()

    @pytest.mark.parametrize("iba", [True, False])
    def test_buffer_holds_raw_stream_features_with_iba(self, iba, monkeypatch):
        # with IBA the buffer keeps raw stream rows; without it, the augmented
        # rows the step trained on
        trained = []

        def recording_augment(*args):
            out = augment(*args)
            trained.extend(row.tobytes() for row in out)
            return out

        monkeypatch.setattr(trainer, "augment", recording_augment)
        stream = small_stream()
        config = small_config(iba=iba, aug_stream_enabled=True, aug_max_shift=1,
                              aug_hflip_prob=0.5, image_dims=(4, 2, 1), buffer_capacity=10)
        state, _ = run_training(stream, config)
        raw_rows = {row.tobytes()
                    for task in stream.tasks for row in task.train_features}
        stored = {row.tobytes() for row in state.buffer.features[:state.buffer.n_filled]}
        kept, other = (raw_rows, set(trained)) if iba else (set(trained), raw_rows)
        assert stored <= kept
        assert stored - other, "every stored row is both raw and trained on"

    def test_one_transform_call_per_batch(self, monkeypatch):
        calls = []

        def counting_augment(policy, rows, rng):
            calls.append(rows.shape)
            return augment(policy, rows, rng)

        monkeypatch.setattr(trainer, "augment", counting_augment)
        monkeypatch.setattr(augmentation, "augment", counting_augment)
        stream = small_stream()
        config = small_config(iba=True, aug_stream_enabled=True, aug_max_shift=1,
                              aug_hflip_prob=0.5, image_dims=(4, 2, 1))
        state = init_state(stream, config)
        task = stream.tasks[0]
        er_train_step(state, task.train_features[:5], task.train_labels[:5], config)
        calls.clear()
        er_train_step(state, task.train_features[5:10], task.train_labels[5:10], config)
        assert calls == [(5, 8), (8, 8)]


class TestCorrectionsDuringRuns:
    def test_bic_fitted_from_second_task_onward(self):
        stream = small_stream()
        report = run_class_il(stream, small_config(bic=True))
        assert report.correction is not None
        assert report.correction["type"] == "bic"
        assert sorted(report.correction["classes"]) == list(stream.tasks[-1].class_ids)

    def test_cbic_covers_all_tasks_at_the_end(self):
        stream = small_stream()
        report = run_class_il(stream, small_config(cbic=True))
        assert report.correction["type"] == "cbic"
        assert len(report.correction["betas"]) == stream.n_tasks
        assert report.correction["betas"][0] == 0.0

    def test_no_correction_without_buffer(self):
        stream = small_stream()
        report = run_class_il(stream, small_config(bic=True, buffer_capacity=0))
        assert report.correction is None

    def test_side_buffer_mode_trains_like_sgd_but_fits_corrections(self):
        stream = small_stream()
        plain = run_class_il(stream, baseline_config(small_config()))
        side = run_class_il(stream, small_config(replay_enabled=False, cbic=True,
                                                 buffer_capacity=20))
        np.testing.assert_allclose(side.task_pred_distribution_raw,
                                   plain.task_pred_distribution_raw, atol=1e-12)
        assert side.correction is not None


def record_final_evaluation(monkeypatch):
    """Record the state of the next run and the inputs of every
    ``Mlp.forward`` made after its last training step or bias fit."""
    seen = {"state": None, "eval_inputs": []}

    def wrap(name, after):
        inner = getattr(trainer, name)

        def wrapped(*args, **kwargs):
            out = inner(*args, **kwargs)
            after(out)
            return out
        monkeypatch.setattr(trainer, name, wrapped)

    wrap("init_state", lambda state: seen.update(state=state))
    for name in ("er_train_step", "fit_bic", "fit_cbic"):
        wrap(name, lambda _: seen["eval_inputs"].clear())
    forward = Mlp.forward

    def counting_forward(self, inputs):
        seen["eval_inputs"].append(inputs)
        return forward(self, inputs)
    monkeypatch.setattr(Mlp, "forward", counting_forward)
    return seen


class TestEvaluationErrors:
    def test_empty_test_set_is_an_error(self, monkeypatch):
        stream = small_stream()
        seen = record_final_evaluation(monkeypatch)
        broken_task = type(stream.tasks[0])(
            class_ids=stream.tasks[0].class_ids,
            train_features=stream.tasks[0].train_features,
            train_labels=stream.tasks[0].train_labels,
            test_features=np.empty((0, 8)),
            test_labels=np.empty(0, dtype=int),
        )
        broken = TaskStream(tasks=[broken_task], class_count=stream.class_count)
        steps = []
        step = trainer.er_train_step
        monkeypatch.setattr(trainer, "er_train_step",
                            lambda *args: steps.append(1) or step(*args))
        with pytest.raises(ValueError, match="empty test set"):
            run_class_il(stream, small_config(), eval_stream=broken)
        assert seen["eval_inputs"] == []
        assert steps == []  # rejected before any training


class TestFinalEvaluation:
    @pytest.mark.parametrize("tricks", [{}, {"bic": True}, {"cbic": True}])
    def test_one_forward_per_test_set(self, monkeypatch, tricks):
        stream = synthetic_class_il_stream(seed=0, **{**SMOKE, "class_count": 6})
        seen = record_final_evaluation(monkeypatch)
        run_class_il(stream, small_config(**tricks))
        assert len(seen["eval_inputs"]) == stream.n_tasks
        assert all(x is task.test_features
                   for x, task in zip(seen["eval_inputs"], stream.tasks))

    def test_correction_maps_the_raw_per_task_logits(self, monkeypatch):
        stream = synthetic_class_il_stream(seed=0, **{**SMOKE, "class_count": 6})
        seen = record_final_evaluation(monkeypatch)
        report = run_class_il(stream, small_config(bic=True))
        state = seen["state"]
        assert state.correction is not None
        raw = [state.model.forward(task.test_features)[0] for task in stream.tasks]
        corrected = [state.correction.apply(z) for z in raw]
        assert report.per_task_accuracy == average_final_accuracy(corrected, stream)[0]
        assert report.task_pred_distribution == \
            task_prediction_distribution(corrected, stream).tolist()
        assert report.task_pred_distribution_raw == \
            task_prediction_distribution(raw, stream).tolist()
        assert report.task_pred_distribution != report.task_pred_distribution_raw


class TestAblationSuite:
    def test_row_labels_and_length_without_stream_aug(self):
        stream = small_stream()
        rows = ablation_suite(stream, ablation_configs(small_config()), seeds=[0, 1])
        assert [r.label for r in rows] == ["er", "+bic", "+elrd", "+brs", "+lars"]
        for row in rows:
            assert [r.config for r in row.reports] == \
                [asdict(replace(row.config, seed=s)) for s in (0, 1)]

    def test_iba_row_present_with_stream_aug(self):
        stream = small_stream()
        base = small_config(aug_stream_enabled=True, aug_max_shift=1,
                            image_dims=(4, 2, 1))
        rows = ablation_suite(stream, ablation_configs(base), seeds=[0])
        assert [r.label for r in rows] == ["er", "+iba", "+bic", "+elrd", "+brs", "+lars"]

    def test_consecutive_rows_differ_in_exactly_one_trick_dimension(self):
        stream = small_stream()
        rows = ablation_suite(stream, ablation_configs(small_config()), seeds=[0])
        for prev, nxt in zip(rows, rows[1:]):
            diff = sum(a != b for a, b in zip(trick_signature(prev.config),
                                              trick_signature(nxt.config)))
            assert diff == 1

    def test_mean_and_std_summarize_reports(self):
        stream = small_stream()
        rows = ablation_suite(stream, ablation_configs(small_config()), seeds=[0, 1, 2])
        for row in rows:
            accs = [rep.average_accuracy for rep in row.reports]
            assert row.mean_accuracy == pytest.approx(float(np.mean(accs)))
            assert row.std_accuracy == pytest.approx(float(np.std(accs)))


class TestProcessCount:
    """Runs fork only where BLAS is pinned to one thread: two processes at
    the default thread count oversubscribe the cores (README, "Parallel
    runs"). Items that outnumber the cores by at most half get a process
    each. Checked without forking."""

    @pytest.fixture(autouse=True)
    def unpinned(self, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)

    @pytest.mark.parametrize("env, cores, runs, want", [
        ({}, 4, 12, 1),
        ({"OPENBLAS_NUM_THREADS": "2"}, 4, 12, 1),
        ({"OMP_NUM_THREADS": "2"}, 4, 12, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 12, 4),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 3, 3),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 1, 1),
        ({"OMP_NUM_THREADS": "1"}, 4, 12, 4),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 12, 1),
        ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, 4, 12, 4),
        # up to one and a half items per core, each item its own process
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 5, 5),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 6, 6),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 7, 4),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 3, 3),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 5, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 3, 1),
        # no items still take one process, which computes nothing
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 0, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 0, 1),
    ])
    def test_rule(self, monkeypatch, env, cores, runs, want):
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        assert process_count(runs) == want

    def test_cpu_count_where_there_is_no_affinity_call(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert process_count(12) == 3

    def test_serial_without_fork(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delattr(os, "fork", raising=False)
        assert process_count(12) == 1


def scaled_with_pid(factor, item):
    return factor * item, os.getpid()


def fail_at_2_and_3(shared, item):
    if item in (2, 3):
        raise ValueError(f"item {item} broke")
    return item


def unpicklable(shared, item):
    return lambda: item


class TestRunMany:
    """``run_many`` maps any function over any items, not only training runs."""

    def test_odd_split_over_two_processes_keeps_item_order(self, two_processes):
        forks = two_processes(sys.modules[__name__], "scaled_with_pid")
        results = trainer.run_many(scaled_with_pid, 10, range(5))
        assert [value for value, _ in results] == [0, 10, 20, 30, 40]
        pids = [pid for _, pid in results]
        # this process takes items 0, 2 and 4, the forked one 1 and 3
        assert pids[0::2] == [os.getpid()] * 3 and pids[1::2] == forks.forked * 2
        assert len(forks.forked) == 1

    def test_three_items_on_two_cores_take_a_process_each(self, two_processes):
        forks = two_processes(sys.modules[__name__], "scaled_with_pid")
        results = trainer.run_many(scaled_with_pid, 10, range(3))
        assert [value for value, _ in results] == [0, 10, 20]
        assert [pid for _, pid in results] == [os.getpid()] + forks.forked
        assert len(forks.forked) == 2

    def test_caller_failing_first_raises_its_own_exception(self, two_processes):
        # this process takes items 0, 2 and 4 and fails at 2; the forked one
        # fails at 3, later in list order
        forks = two_processes(sys.modules[__name__], "fail_at_2_and_3")
        with pytest.raises(ValueError, match="^item 2 broke$") as raised:
            trainer.run_many(fail_at_2_and_3, None, range(5))
        assert raised.value.__cause__ is None
        assert len(forks.forked) == 1 and len(forks.callers()) == 2

    def test_unpicklable_forked_result_is_a_runtime_error(self, two_processes):
        forks = two_processes(sys.modules[__name__], "unpicklable")
        with pytest.raises(RuntimeError) as raised:
            trainer.run_many(unpicklable, None, range(2))
        assert str(raised.value) == (f"worker process 1 (pid {forks.forked[0]}) exited "
                                     "with status 1 without sending its results")

    def test_no_items_fork_nothing(self, two_processes):
        forks = two_processes(sys.modules[__name__], "scaled_with_pid")
        assert trainer.run_many(scaled_with_pid, 10, []) == []
        assert forks.forked == []
