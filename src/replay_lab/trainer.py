"""Class-incremental training loop with experience replay.

Each step optimizes the sum of two batch means (stream cross-entropy plus
replay cross-entropy) in one pass over the stacked stream and replay rows,
updates the buffer under the configured strategy, and advances the stream
example counter that sets the learning rate. A bias correction is fitted on
the buffer at task boundaries and applied at evaluation time only.

A run is a sequential state machine owning its model, buffer, and a set of
named random streams derived from the run seed, so independent (config, seed)
runs are reproducible and safe to execute in parallel. ``run_many`` splits a
list of such runs, or of any other independent items (``balance-toy``'s
repetitions, for one), over processes: where BLAS is pinned to one thread, one
per usable core, or one per item where the items outnumber the cores by at
most half. Every process, the caller first, computes its share in one function.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import time
import traceback
from dataclasses import dataclass, replace, asdict

import numpy as np

from .augmentation import AugPolicy, augment, replay_with_iba
from .bias_correction import Correction, fit_bic, fit_cbic
from .datasets import Task, TaskStream
from .evaluation import (RunReport, average_final_accuracy, buffer_balance_mse,
                         task_prediction_distribution)
from .mlp import Mlp, softmax_cross_entropy
from .sampling import BALANCED_RESERVOIR, LOSS_AWARE_RESERVOIR, RESERVOIR, ReplayBuffer

TRICK_TOKENS = ("iba", "bic", "cbic", "elrd", "brs", "lars")

# With ELRD, the rate used at a run's final step is this fraction of lr0.
ELRD_FINAL_FRACTION = 1.0 / 6.0


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
    replay_enabled: bool = True
    aug_max_shift: int = 0
    aug_hflip_prob: float = 0.0
    aug_stream_enabled: bool = False
    image_dims: tuple[int, int, int] | None = None
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
        if self.brs and self.lars:
            raise ValueError("brs and lars are mutually exclusive")
        if self.bic and self.cbic:
            raise ValueError("bic and cbic are mutually exclusive")
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

    @classmethod
    def from_seed(cls, seed: int) -> "RngStreams":
        children = np.random.SeedSequence(seed).spawn(6)
        return cls(*(np.random.default_rng(c) for c in children))


@dataclass
class TrainState:
    """One run's mutable state. The learning rate after ``examples_seen``
    stream examples is ``lr0 * exp(examples_seen * log_decay)``: it spans the
    whole stream and never resets at a task boundary. Replayed items do not
    advance the counter. ``log_decay`` is 0.0 without ELRD."""

    model: Mlp
    buffer: ReplayBuffer
    log_decay: float
    rngs: RngStreams
    aug_policy: AugPolicy
    examples_seen: int = 0
    task_index: int = 0
    task_step: int = 0
    correction: Correction | None = None


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
    lr = config.lr0 * math.exp(state.examples_seen * state.log_decay)

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


def _log_decay(config: TrainConfig, task_sizes) -> float:
    """The log of the per-example decay factor: 0.0 without ELRD, else set
    so that the rate used at the final step (not one batch later) is
    ``lr0 * ELRD_FINAL_FRACTION``."""
    if not config.elrd:
        return 0.0
    n = max(_final_step_offset(task_sizes, config.epochs_per_task,
                               config.stream_batch_size), 1)
    # the log of the rounded per-example factor: the seeded digests pin the
    # rates it gives, and lr0 * f ** (N / n) would round almost every one
    # differently
    return math.log(ELRD_FINAL_FRACTION ** (1.0 / n))


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
    log_decay = _log_decay(config, [len(t.train_labels) for t in task_stream.tasks])
    return TrainState(model=model, buffer=buffer, log_decay=log_decay, rngs=rngs,
                      aug_policy=aug_policy(config, task_stream.feature_dim))


def run_class_il(task_stream: TaskStream, config: TrainConfig,
                 eval_stream: TaskStream | None = None) -> RunReport:
    """Train over the task sequence and evaluate on every task's test set.

    BiC is fitted at the end of each task from the second onward (after the
    first task there is nothing to correct); CBiC at the end of every task.
    Either replaces the previously fitted correction. Corrections never touch
    the backbone and only shape evaluation-time logits: the final evaluation
    runs one forward per test set and scores the raw and the corrected logits.
    An empty test set is rejected before any training.
    """
    t_start = time.perf_counter()
    if eval_stream is None:
        eval_stream = task_stream
    for task in eval_stream.tasks:
        if task.test_features.shape[0] == 0:
            raise ValueError(f"task {task.class_ids} has an empty test set")
    state = init_state(task_stream, config)

    for t, task in enumerate(task_stream.tasks):
        state.task_index = t
        _train_one_task(state, task, config)
        if state.buffer.n_filled > 0:
            if config.bic and t >= 1:
                state.correction = fit_bic(state.model, state.buffer, set(task.class_ids))
            if config.cbic:
                partition = {c: ti for ti, tk in enumerate(task_stream.tasks[:t + 1])
                             for c in tk.class_ids}
                state.correction = fit_cbic(state.model, state.buffer, partition)

    raw = [state.model.forward(task.test_features)[0] for task in eval_stream.tasks]
    logits = raw if state.correction is None else [state.correction.apply(z) for z in raw]
    per_task, avg = average_final_accuracy(logits, eval_stream)
    dist_raw = task_prediction_distribution(raw, eval_stream)
    dist = dist_raw if logits is raw else task_prediction_distribution(logits, eval_stream)

    mse = None
    if state.buffer.capacity > 0 and state.buffer.is_full:
        mse = buffer_balance_mse(state.buffer)
    return RunReport(
        method=method_label(config),
        seed=config.seed,
        per_task_accuracy=per_task,
        average_accuracy=avg,
        task_pred_distribution=[float(x) for x in dist],
        task_pred_distribution_raw=[float(x) for x in dist_raw],
        buffer_class_counts=state.buffer.class_counts(),
        buffer_balance_mse=mse,
        correction=None if state.correction is None else state.correction.summary,
        examples_seen=state.examples_seen,
        wall_clock_seconds=time.perf_counter() - t_start,
        config=asdict(config),
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


def baseline_config(config: TrainConfig, buffer_capacity: int = 0) -> TrainConfig:
    """``config`` with no tricks; at the default capacity 0, the plain SGD
    fine-tuning baseline (lower bound), which ``method_label`` calls ``sgd``."""
    return replace(config, buffer_capacity=buffer_capacity,
                   **dict.fromkeys(TRICK_TOKENS, False))


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
    report = run_class_il(merge_tasks(task_stream), baseline_config(config),
                          eval_stream=task_stream)
    return replace(report, method="joint")


def process_count(n_items: int) -> int:
    """The number of processes ``run_many`` splits ``n_items`` items over.

    When ``os.fork`` exists and the environment pins OpenBLAS to one thread
    (``OPENBLAS_NUM_THREADS``, or failing that ``OMP_NUM_THREADS``, is 1):
    one process per item if the items number at most one and a half per
    usable core (``n_items <= cores + cores // 2``; 1 if there are none),
    else one per usable core. Otherwise 1. Time-sharing three runs on
    two cores cost up to about 10% more CPU than two processes, so a process
    per item is taken only where ``min(n_items, cores)`` would leave at least
    a quarter of the core-time idle. At the default thread count, two
    processes with a BLAS thread per core each ran several times slower than
    one (README, "Parallel runs").
    """
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    if not hasattr(os, "fork") or (threads or "").strip() != "1":
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        cores = os.cpu_count() or 1
    return max(1, n_items if n_items <= cores + cores // 2 else cores)


def run_many(run, shared, items) -> list:
    """``[run(shared, item) for item in items]``, computed in
    ``process_count(len(items))`` processes.

    With n processes, process k computes ``_run_share`` of ``items[k::n]``;
    the caller is process 0. The others are forked, so they see ``shared``
    (a task stream, say) without copying it, and each sends back its share's
    results and failure, pickled over a pipe. Three items on two cores take
    three processes, one item each, which time-share the cores. The results
    equal a serial loop's, and the exception raised is the one a serial loop
    raises: that of the first failing item in list order, from a
    ``RuntimeError`` holding its traceback if a forked process raised it. A
    process that ends without sending its share is a ``RuntimeError`` naming
    its exit status. Every forked process is reaped before this returns or
    raises.
    """
    items = list(items)
    n = process_count(len(items))
    import signal   # not at module level: importing it adds about 1 ms to start-up

    sys.stdout.flush()
    sys.stderr.flush()
    children = []   # (pid, read end of its pipe) of each child not yet reaped
    try:
        for k in range(1, n):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:   # never returns: exits 0 once its pickled share is written, else 1
                try:
                    blob = pickle.dumps(_run_share(run, shared, items[k::n]))
                    with open(write_fd, "wb") as pipe:
                        pipe.write(blob)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        shares = [_run_share(run, shared, items[0::n])]
        if shares[0][1] is not None and shares[0][1][0] == 0:
            raise shares[0][1][1]   # item 0 comes first; ``finally`` stops the children
        for k in range(1, n):
            pid, pipe = children[0]
            with pipe:
                blob = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if code != 0 or not blob:
                raise RuntimeError(f"worker process {k} (pid {pid}) exited with status "
                                   f"{code} without sending its results")
            shares.append(pickle.loads(blob))
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
    failures = [(f[0] * n + k, f) for k, (_, f) in enumerate(shares) if f is not None]
    if failures:
        i, (_, exc, formatted) = min(failures, key=lambda f: f[0])
        if i % n == 0:
            raise exc   # the caller's own
        raise exc from RuntimeError(f"in a worker process:\n{formatted}")
    return [shares[i % n][0][i // n] for i in range(len(items))]


def _run_share(run, shared, share) -> tuple[list, tuple | None]:
    """``[run(shared, item) for item in share]`` up to the first failure, as ``(results,
    failure)``: ``failure`` is None or ``(offset in share, exception, formatted traceback)``."""
    results = []
    for offset, item in enumerate(share):
        try:
            results.append(run(shared, item))
        except Exception as exc:
            return results, (offset, exc, "".join(traceback.format_exception(exc)))
    return results, None


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
    """Run each (label, config) row of ``ablation_configs`` once per seed,
    all rows' runs in one ``run_many``."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    runs = run_many(run_class_il, task_stream,
                    [replace(step_cfg, seed=s) for _, step_cfg in steps for s in seeds])
    rows = []
    for i, (label, step_cfg) in enumerate(steps):
        reports = runs[i * len(seeds):(i + 1) * len(seeds)]
        accs = np.array([r.average_accuracy for r in reports])
        rows.append(AblationRow(label=label, config=step_cfg, reports=reports,
                                mean_accuracy=float(accs.mean()),
                                std_accuracy=float(accs.std())))
    return rows
