"""Metrics for finished runs: per-task and average accuracy, the task-level
prediction distribution of a single-head classifier, buffer balance, and a
KL-to-uniform flatness score."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .datasets import TaskStream
from .mlp import softmax
from .sampling import ReplayBuffer


@dataclass
class RunReport:
    """Everything a finished run reports, config echo and seed included.

    Accuracies and distributions come from one forward per task test set.
    ``task_pred_distribution_raw`` is measured on those raw logits, the
    accuracies and the unsuffixed field on the bias-corrected ones (the same
    logits when no correction is fitted).
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


def average_final_accuracy(logits: list[np.ndarray],
                           task_stream: TaskStream) -> tuple[list[float], float]:
    """Single-head accuracy per task test set from that set's logits (one
    array per task, in stream order), plus the unweighted mean.

    Predictions argmax over all protocol classes; ties break toward the
    lowest class id.
    """
    accs = [float(np.mean(np.argmax(z, axis=1) == task.test_labels))
            for z, task in zip(logits, task_stream.tasks)]
    return accs, float(np.mean(accs))


def task_prediction_distribution(logits: list[np.ndarray],
                                 task_stream: TaskStream) -> np.ndarray:
    """How much softmax mass the model assigns to each task's classes.

    Pools every test example of the per-task ``logits``, sums class
    probabilities within each task, and normalizes to a distribution. A
    class in no task gets no mass.
    """
    class_mass = sum(softmax(z).sum(axis=0) for z in logits)
    classes = [c for task in task_stream.tasks for c in task.class_ids]
    owners = [t for t, task in enumerate(task_stream.tasks) for _ in task.class_ids]
    masses = np.bincount(owners, class_mass[classes], task_stream.n_tasks)
    return masses / masses.sum()


def buffer_balance_mse(buffer: ReplayBuffer) -> float:
    """Mean over the buffer's classes of (stored count - ideal)^2, where the
    ideal is ``capacity / class_count``.

    Classes with zero stored items count too. Meaningful as the balance
    statistic once the buffer is full.
    """
    counts = np.bincount(buffer.labels[:buffer.n_filled], minlength=buffer.class_count)
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
