"""Class-incremental training loop with experience replay.

Each step optimizes the sum of two batch means (stream cross-entropy plus
replay cross-entropy) in one pass over the stacked stream and replay rows,
updates the buffer under the configured strategy, and advances the
per-example learning-rate schedule. Bias-correction layers are fitted on the
buffer at task boundaries and applied at evaluation time only.

A run is a sequential state machine owning its model, buffer, and a set of
named random streams derived from the run seed, so independent (config, seed)
runs are reproducible and safe to execute in parallel.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace, asdict

import numpy as np

from .augmentation import AugPolicy, augment, replay_with_iba
from .bias_correction import BiasFitConfig, BicLayer, CbicLayer, fit_bic, fit_cbic
from .datasets import Task, TaskStream
from .evaluation import (RunReport, average_final_accuracy, buffer_balance_mse,
                         task_prediction_distribution)
from .mlp import Mlp, softmax_cross_entropy
from .sampling import BALANCED_RESERVOIR, LOSS_AWARE_RESERVOIR, RESERVOIR, ReplayBuffer
from .schedule import ExpDecaySchedule, gamma_for_final_fraction

TRICK_TOKENS = ("iba", "bic", "cbic", "elrd", "brs", "lars")


@dataclass(frozen=True)
class TrainConfig:
    """One run's hyperparameters and trick toggles.

    ``brs`` and ``lars`` are mutually exclusive (the loss-aware rule already
    contains the balancing term), as are ``bic`` and ``cbic``. Capacity 0
    with no tricks is the plain SGD fine-tuning baseline.
    """

    buffer_capacity: int = 500
    replay_batch_size: int = 32
    stream_batch_size: int = 32
    epochs_per_task: int = 1
    hidden_dims: tuple[int, ...] = (256, 256)
    lr0: float = 0.1
    iba: bool = False
    bic: bool = False
    cbic: bool = False
    elrd: bool = False
    brs: bool = False
    lars: bool = False
    decay_fraction: float = 1.0 / 6.0
    replay_enabled: bool = True
    aug_max_shift: int = 0
    aug_hflip_prob: float = 0.0
    aug_stream_enabled: bool = False
    image_dims: tuple[int, int, int] | None = None
    bias_epochs: int = 50
    bias_batch_size: int = 32
    bias_lr: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.buffer_capacity < 0:
            raise ValueError("buffer_capacity must be >= 0")
        if self.replay_batch_size < 1 or self.stream_batch_size < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.epochs_per_task < 1:
            raise ValueError("epochs_per_task must be >= 1")
        if any(d < 1 for d in self.hidden_dims):
            raise ValueError(f"hidden_dims entries must be >= 1, got {list(self.hidden_dims)}")
        if not 0 < self.lr0 < math.inf:
            raise ValueError(f"lr0 must be positive and finite, got {self.lr0}")
        if not 0.0 < self.decay_fraction <= 1.0:
            raise ValueError("decay_fraction must be in (0, 1]")
        if self.brs and self.lars:
            raise ValueError("brs and lars are mutually exclusive")
        if self.bic and self.cbic:
            raise ValueError("bic and cbic are mutually exclusive")
        if self.bias_epochs < 0:
            raise ValueError("bias_epochs must be >= 0")
        if self.bias_batch_size < 1:
            raise ValueError("bias_batch_size must be >= 1")
        if not 0 < self.bias_lr < math.inf:
            raise ValueError(f"bias_lr must be positive and finite, got {self.bias_lr}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def strategy(self) -> str:
        if self.lars:
            return LOSS_AWARE_RESERVOIR
        if self.brs:
            return BALANCED_RESERVOIR
        return RESERVOIR

    def active_tricks(self) -> tuple[str, ...]:
        return tuple(t for t in TRICK_TOKENS if getattr(self, t))


def method_label(config: TrainConfig) -> str:
    base = "er" if config.buffer_capacity > 0 and config.replay_enabled else "sgd"
    tricks = config.active_tricks()
    return base + "".join(f"+{t}" for t in tricks)


@dataclass
class RngStreams:
    """Named random streams for one run, split from the run seed so that
    toggling one consumer (say IBA) never perturbs the draws of another."""

    init: np.random.Generator
    shuffle: np.random.Generator
    buffer: np.random.Generator
    replay: np.random.Generator
    stream_aug: np.random.Generator
    iba: np.random.Generator
    fit: np.random.Generator

    @classmethod
    def from_seed(cls, seed: int) -> "RngStreams":
        children = np.random.SeedSequence(seed).spawn(7)
        return cls(*(np.random.default_rng(c) for c in children))


@dataclass
class TrainState:
    model: Mlp
    buffer: ReplayBuffer
    schedule: ExpDecaySchedule
    rngs: RngStreams
    aug_policy: AugPolicy
    examples_seen: int = 0
    task_index: int = 0
    task_step: int = 0
    correction: BicLayer | CbicLayer | None = None


@dataclass
class StepInfo:
    lr: float
    stream_loss: float
    replay_loss: float
    total_loss: float
    per_item_losses: np.ndarray


def er_train_step(state: TrainState, features: np.ndarray, labels: np.ndarray,
                  config: TrainConfig) -> StepInfo:
    """One experience-replay step on a stream batch.

    Order matters: the learning rate is read before the example counter
    advances; drawn slots get their loss scores refreshed with the losses of
    this step; stream items enter the buffer after the gradient step,
    carrying the loss just computed for them. The buffer stores raw features
    unless stream augmentation is on while independent buffer augmentation
    is off.

    Raises ``FloatingPointError``, before the SGD update, when the stream or
    replay loss is not finite; the message names the task and the step
    within it.
    """
    n = features.shape[0]
    if n == 0:
        raise ValueError("stream batch must be non-empty")
    rngs = state.rngs
    lr = state.schedule.lr_at(state.examples_seen)

    train_feats = (augment(state.aug_policy, features, rngs.stream_aug)
                   if config.aug_stream_enabled else features)

    replay_ids = None
    if config.replay_enabled and state.buffer.n_filled > 0:
        if config.iba:
            replay_ids, replay_feats, replay_labels = replay_with_iba(
                state.buffer, config.replay_batch_size, state.aug_policy,
                rngs.replay, rngs.iba)
        else:
            replay_ids, replay_feats, replay_labels = state.buffer.draw_replay_batch(
                config.replay_batch_size, rngs.replay)

    inputs = train_feats if replay_ids is None else np.concatenate([train_feats, replay_feats])
    logits, cache = state.model.forward(inputs)
    stream_loss, stream_per_item, dlogits = softmax_cross_entropy(logits[:n], labels)
    replay_loss = 0.0
    if replay_ids is not None:
        replay_loss, replay_per_item, r_dlogits = softmax_cross_entropy(
            logits[n:], replay_labels)
        dlogits = np.concatenate([dlogits, r_dlogits])
    if not (np.isfinite(stream_loss) and np.isfinite(replay_loss)):
        raise FloatingPointError(
            f"non-finite loss at task {state.task_index}, step {state.task_step}: "
            f"stream loss {stream_loss}, replay loss {replay_loss}")
    state.model.backward(cache, dlogits)
    state.model.sgd_step(lr)

    if replay_ids is not None:
        state.buffer.refresh_loss_scores(replay_ids, replay_per_item)

    store_feats = train_feats if (config.aug_stream_enabled and not config.iba) else features
    state.buffer.update(store_feats, labels, stream_per_item, rngs.buffer)
    state.examples_seen += n
    state.task_step += 1

    return StepInfo(lr=lr, stream_loss=stream_loss, replay_loss=replay_loss,
                    total_loss=stream_loss + replay_loss,
                    per_item_losses=stream_per_item)


def _final_step_offset(task_sizes, epochs: int, batch: int) -> int:
    """Examples seen just before the run's final gradient step."""
    total = epochs * int(sum(task_sizes))
    last = int(task_sizes[-1]) % batch or min(batch, int(task_sizes[-1]))
    return total - last


def _build_schedule(config: TrainConfig, task_sizes) -> ExpDecaySchedule:
    if not config.elrd:
        return ExpDecaySchedule(lr0=config.lr0, gamma=1.0)
    # Calibrate gamma so the rate used at the final step (not one batch
    # later) lands exactly on lr0 * decay_fraction.
    n_sched = max(_final_step_offset(task_sizes, config.epochs_per_task,
                                     config.stream_batch_size), 1)
    return ExpDecaySchedule(lr0=config.lr0,
                            gamma=gamma_for_final_fraction(config.decay_fraction, n_sched))


def aug_policy(config: TrainConfig, feature_dim: int) -> AugPolicy:
    """The run's one augmentation policy. Without ``image_dims`` each row is
    a (feature_dim, 1, 1) image, on which only a zero shift fits."""
    image_dims = config.image_dims or (feature_dim, 1, 1)
    if math.prod(image_dims) != feature_dim:
        raise ValueError(f"image_dims {list(image_dims)} do not hold {feature_dim} features")
    return AugPolicy(image_dims=image_dims, max_shift=config.aug_max_shift,
                     hflip_prob=config.aug_hflip_prob)


def init_state(task_stream: TaskStream, config: TrainConfig) -> TrainState:
    rngs = RngStreams.from_seed(config.seed)
    dims = [task_stream.feature_dim, *config.hidden_dims, task_stream.class_count]
    model = Mlp(dims, rngs.init)
    buffer = ReplayBuffer(config.buffer_capacity, config.strategy, task_stream.class_count)
    schedule = _build_schedule(config, [len(t.train_labels) for t in task_stream.tasks])
    return TrainState(model=model, buffer=buffer, schedule=schedule, rngs=rngs,
                      aug_policy=aug_policy(config, task_stream.feature_dim))


def run_class_il(task_stream: TaskStream, config: TrainConfig,
                 eval_stream: TaskStream | None = None,
                 method: str | None = None) -> RunReport:
    """Train over the task sequence and evaluate on every task's test set.

    BiC is fitted at the end of each task from the second onward (after the
    first task there is nothing to correct); CBiC at the end of every task.
    Either replaces the previously fitted layer. Corrections never touch the
    backbone and only shape evaluation-time logits: the final evaluation runs
    one forward per test set and scores the raw and the corrected logits.
    """
    t_start = time.perf_counter()
    if eval_stream is None:
        eval_stream = task_stream
    state = init_state(task_stream, config)
    bias_cfg = BiasFitConfig(epochs=config.bias_epochs,
                             batch_size=config.bias_batch_size, lr=config.bias_lr)

    for t, task in enumerate(task_stream.tasks):
        state.task_index = t
        _train_one_task(state, task, config)
        if state.buffer.n_filled > 0:
            if config.bic and t >= 1:
                state.correction = fit_bic(state.model, state.buffer,
                                           set(task.class_ids), bias_cfg, state.rngs.fit)
            if config.cbic:
                partition = {c: ti for ti, tk in enumerate(task_stream.tasks[:t + 1])
                             for c in tk.class_ids}
                state.correction = fit_cbic(state.model, state.buffer, partition,
                                            bias_cfg, state.rngs.fit)

    for task in eval_stream.tasks:
        if task.test_features.shape[0] == 0:
            raise ValueError(f"task {task.class_ids} has an empty test set")
    raw = [state.model.forward(task.test_features)[0] for task in eval_stream.tasks]
    logits = raw if state.correction is None else [state.correction.apply(z) for z in raw]
    per_task, avg = average_final_accuracy(logits, eval_stream)
    dist_raw = task_prediction_distribution(raw, eval_stream)
    dist = dist_raw if logits is raw else task_prediction_distribution(logits, eval_stream)

    mse = None
    if state.buffer.capacity > 0 and state.buffer.is_full:
        mse = buffer_balance_mse(state.buffer)
    return RunReport(
        method=method if method is not None else method_label(config),
        seed=config.seed,
        per_task_accuracy=per_task,
        average_accuracy=avg,
        task_pred_distribution=[float(x) for x in dist],
        task_pred_distribution_raw=[float(x) for x in dist_raw],
        buffer_class_counts=state.buffer.class_counts(),
        buffer_balance_mse=mse,
        buffer_slot_audit=state.buffer.audit(),
        correction=None if state.correction is None else state.correction.summary(),
        examples_seen=state.examples_seen,
        wall_clock_seconds=time.perf_counter() - t_start,
        config=config_dict(config),
    )


def _train_one_task(state: TrainState, task: Task, config: TrainConfig) -> list[StepInfo]:
    infos = []
    state.task_step = 0
    n = len(task.train_labels)
    for _ in range(config.epochs_per_task):
        order = state.rngs.shuffle.permutation(n)
        for start in range(0, n, config.stream_batch_size):
            rows = order[start:start + config.stream_batch_size]
            infos.append(er_train_step(state, task.train_features[rows],
                                       task.train_labels[rows], config))
    return infos


def config_dict(config: TrainConfig) -> dict:
    out = asdict(config)
    out["hidden_dims"] = list(config.hidden_dims)
    if config.image_dims is not None:
        out["image_dims"] = list(config.image_dims)
    return out


def baseline_config(config: TrainConfig, buffer_capacity: int = 0) -> TrainConfig:
    return replace(config, buffer_capacity=buffer_capacity, iba=False, bic=False,
                   cbic=False, elrd=False, brs=False, lars=False)


def run_sgd_baseline(task_stream: TaskStream, config: TrainConfig) -> RunReport:
    """Sequential fine-tuning with no buffer and no tricks (lower bound)."""
    return run_class_il(task_stream, baseline_config(config), method="sgd")


def merge_tasks(task_stream: TaskStream) -> TaskStream:
    """Collapse a stream into a single task over the union of all classes."""
    merged = Task(
        class_ids=tuple(c for t in task_stream.tasks for c in t.class_ids),
        train_features=np.vstack([t.train_features for t in task_stream.tasks]),
        train_labels=np.concatenate([t.train_labels for t in task_stream.tasks]),
        test_features=np.vstack([t.test_features for t in task_stream.tasks]),
        test_labels=np.concatenate([t.test_labels for t in task_stream.tasks]),
    )
    return TaskStream(tasks=[merged], class_count=task_stream.class_count)


def run_joint_baseline(task_stream: TaskStream, config: TrainConfig) -> RunReport:
    """Train on the shuffled union of all tasks at the same epoch budget
    (upper bound), evaluating on the original per-task test sets."""
    return run_class_il(merge_tasks(task_stream), baseline_config(config),
                        eval_stream=task_stream, method="joint")


@dataclass
class AblationRow:
    label: str
    config: TrainConfig
    reports: list[RunReport]
    mean_accuracy: float
    std_accuracy: float


def ablation_configs(base_config: TrainConfig) -> list[tuple[str, TrainConfig]]:
    """The (label, config) rows of the cumulative trick ablation.

    The tricks are applied cumulatively to plain experience replay. Row
    order: er, +iba, +bic, +elrd, +brs, +lars, where +lars swaps the
    balanced rule for the loss-aware one (the two are exclusive by
    construction). The +iba row is skipped when the stream itself is not
    augmented, since re-augmenting buffer draws only makes sense alongside
    stream augmentation.
    """
    cfg = baseline_config(base_config, buffer_capacity=base_config.buffer_capacity)
    steps: list[tuple[str, TrainConfig]] = [("er", cfg)]
    if base_config.aug_stream_enabled:
        cfg = replace(cfg, iba=True)
        steps.append(("+iba", cfg))
    cfg = replace(cfg, bic=True)
    steps.append(("+bic", cfg))
    cfg = replace(cfg, elrd=True)
    steps.append(("+elrd", cfg))
    cfg = replace(cfg, brs=True)
    steps.append(("+brs", cfg))
    cfg = replace(cfg, brs=False, lars=True)
    steps.append(("+lars", cfg))
    return steps


def ablation_suite(task_stream: TaskStream, steps: list[tuple[str, TrainConfig]],
                   seeds) -> list[AblationRow]:
    """Run each (label, config) row of ``ablation_configs`` once per seed."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    rows = []
    for label, step_cfg in steps:
        reports = [run_class_il(task_stream, replace(step_cfg, seed=s)) for s in seeds]
        accs = np.array([r.average_accuracy for r in reports])
        rows.append(AblationRow(label=label, config=step_cfg, reports=reports,
                                mean_accuracy=float(accs.mean()),
                                std_accuracy=float(accs.std())))
    return rows
