"""Metrics for finished runs: per-task and average accuracy, the task-level
prediction distribution of a single-head classifier, buffer balance, and a
KL-to-uniform flatness score."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .datasets import TaskStream
from .mlp import Mlp, softmax
from .sampling import ReplayBuffer


@dataclass
class RunReport:
    """Everything a finished run reports, config echo and seed included.

    ``task_pred_distribution_raw`` is measured before any bias correction,
    the unsuffixed field after (they coincide when no correction is fitted).
    """

    method: str
    seed: int
    per_task_accuracy: list[float]
    average_accuracy: float
    task_pred_distribution: list[float]
    task_pred_distribution_raw: list[float]
    buffer_class_counts: dict[int, int]
    buffer_balance_mse: float | None
    buffer_slot_audit: list[tuple[int, int, float]]
    correction: dict | None
    examples_seen: int
    wall_clock_seconds: float
    config: dict

    def to_json_dict(self) -> dict:
        out = asdict(self)
        out["buffer_class_counts"] = {str(k): v for k, v in self.buffer_class_counts.items()}
        out["buffer_slot_audit"] = [list(t) for t in self.buffer_slot_audit]
        return out


def _corrected_logits(model: Mlp, correction, features: np.ndarray) -> np.ndarray:
    logits, _ = model.forward(features)
    return logits if correction is None else correction.apply(logits)


def average_final_accuracy(model: Mlp, correction,
                           task_stream: TaskStream) -> tuple[list[float], float]:
    """Single-head accuracy per task test set, plus the unweighted mean.

    Predictions argmax over all protocol classes; ties break toward the
    lowest class id.
    """
    accs = []
    for task in task_stream.tasks:
        if task.test_features.shape[0] == 0:
            raise ValueError(f"task {task.class_ids} has an empty test set")
        logits = _corrected_logits(model, correction, task.test_features)
        preds = np.argmax(logits, axis=1)
        accs.append(float(np.mean(preds == task.test_labels)))
    return accs, float(np.mean(accs))


def task_prediction_distribution(model: Mlp, correction,
                                 task_stream: TaskStream) -> np.ndarray:
    """How much softmax mass the model assigns to each task's classes.

    Pools every test example, sums class probabilities within each task per
    example, averages over the pool, and renormalizes to a distribution.
    """
    features = np.vstack([t.test_features for t in task_stream.tasks])
    if features.shape[0] == 0:
        raise ValueError("no test examples in the stream")
    probs = softmax(_corrected_logits(model, correction, features))
    masses = np.empty(task_stream.n_tasks)
    for t, task in enumerate(task_stream.tasks):
        masses[t] = probs[:, list(task.class_ids)].sum(axis=1).mean()
    return masses / masses.sum()


def buffer_balance_mse(buffer: ReplayBuffer) -> float:
    """Mean over the buffer's classes of (stored count - ideal)^2, where the
    ideal is ``capacity / class_count``.

    Classes with zero stored items count too. Meaningful as the balance
    statistic once the buffer is full.
    """
    counts = np.bincount(buffer.labels[buffer.labels >= 0], minlength=buffer.class_count)
    return float(np.mean((counts - buffer.capacity / buffer.class_count) ** 2))


def kl_to_uniform(distribution) -> float:
    """KL divergence from a probability vector to the uniform one:
    sum p_i * ln(p_i * n), with 0 * ln 0 = 0."""
    p = np.asarray(distribution, dtype=float)
    if np.any(p < 0):
        raise ValueError("distribution entries must be non-negative")
    n = p.size
    nz = p > 0
    return float(np.sum(p[nz] * np.log(p[nz] * n)))
