"""Post-hoc output calibration for class-incremental classifiers.

Two correction layers, both fitted on the replay buffer with the backbone
frozen and applied to logits at evaluation time only:

* ``BicLayer``  -- one affine pair (alpha, beta) applied to the logits of the
  classes learned last; all other logits pass through unchanged.
* ``CbicLayer`` -- one additive offset per task, applied to every logit of
  that task's classes; the first task's offset is pinned to zero to remove
  the softmax shift degeneracy.

Each layer corrects logits with ``.apply()`` and describes itself for the
run report with ``.summary()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mlp import Mlp, softmax
from .sampling import ReplayBuffer


@dataclass(frozen=True)
class BiasFitConfig:
    epochs: int = 50
    batch_size: int = 32
    lr: float = 0.01


@dataclass(frozen=True)
class BicLayer:
    alpha: float
    beta: float
    last_task_classes: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if not self.last_task_classes:
            raise ValueError("last_task_classes must be non-empty")

    def apply(self, logits: np.ndarray) -> np.ndarray:
        """q_k = alpha * o_k + beta on the last task's classes, identity elsewhere."""
        logits = np.asarray(logits, dtype=float)
        idx = _class_index(self.last_task_classes, logits.shape[-1])
        out = logits.copy()
        out[..., idx] = self.alpha * logits[..., idx] + self.beta
        return out

    def summary(self) -> dict:
        """The correction as the run report records it."""
        return {"type": "bic", "alpha": float(self.alpha), "beta": float(self.beta),
                "classes": sorted(self.last_task_classes)}


@dataclass(frozen=True)
class CbicLayer:
    betas: np.ndarray
    task_partition: dict[int, int]

    def __post_init__(self):
        object.__setattr__(self, "betas", np.asarray(self.betas, dtype=float))
        tasks = set(self.task_partition.values())
        if tasks and (min(tasks) < 0 or max(tasks) >= len(self.betas)):
            raise ValueError("task ids must index into betas")

    def apply(self, logits: np.ndarray) -> np.ndarray:
        """q_k = o_k + beta_{task(k)} for every class k."""
        logits = np.asarray(logits, dtype=float)
        k = logits.shape[-1]
        missing = [c for c in range(k) if c not in self.task_partition]
        if missing:
            raise ValueError(f"classes {missing} are not mapped to any task")
        task_idx = np.array([self.task_partition[c] for c in range(k)])
        return logits + self.betas[task_idx]

    def summary(self) -> dict:
        """The correction as the run report records it."""
        return {"type": "cbic", "betas": self.betas.tolist()}


def _class_index(classes, n_logits: int) -> list[int]:
    idx = sorted(classes)
    if idx[-1] >= n_logits:
        raise ValueError(f"class id {idx[-1]} out of range for {n_logits} logits")
    return idx


def _descend(model: Mlp, buffer: ReplayBuffer, params: np.ndarray, corrected, grad,
             config: BiasFitConfig, rng: np.random.Generator) -> np.ndarray:
    """Minibatch gradient descent of ``params`` on the buffer cross-entropy.

    ``corrected(params, o)`` maps raw logits ``o`` to corrected ones and
    ``grad(dq, o)`` maps the loss gradient at the corrected logits to the
    gradient of ``params``. The backbone is frozen during fitting, so its
    logits on the buffer are computed once and reused across epochs.
    """
    feats, labels = buffer.as_arrays()
    logits, _ = model.forward(feats)
    for _ in range(config.epochs):
        order = rng.permutation(logits.shape[0])
        for start in range(0, order.size, config.batch_size):
            rows = order[start:start + config.batch_size]
            o = logits[rows]
            # gradient of the mean cross-entropy: (softmax - onehot) / n
            dq = softmax(corrected(params, o))
            dq[np.arange(rows.size), labels[rows]] -= 1.0
            dq /= rows.size
            params -= config.lr * grad(dq, o)
    return params


def fit_bic(model: Mlp, buffer: ReplayBuffer, last_task_classes,
            config: BiasFitConfig, rng: np.random.Generator) -> BicLayer:
    """Fit (alpha, beta) by gradient descent on the buffer cross-entropy.

    Starts from the identity (1, 0); zero epochs returns it unchanged. The
    backbone is never touched.
    """
    classes = frozenset(int(c) for c in last_task_classes)
    if not classes:
        raise ValueError("last_task_classes must be non-empty")
    idx = _class_index(classes, model.layer_dims[-1])

    def corrected(p, o):
        q = o.copy()
        q[:, idx] = p[0] * o[:, idx] + p[1]
        return q

    def grad(dq, o):
        return np.array([(dq[:, idx] * o[:, idx]).sum(), dq[:, idx].sum()])

    alpha, beta = _descend(model, buffer, np.array([1.0, 0.0]), corrected, grad, config, rng)
    return BicLayer(alpha=float(alpha), beta=float(beta), last_task_classes=classes)


def fit_cbic(model: Mlp, buffer: ReplayBuffer, task_partition: dict[int, int],
             config: BiasFitConfig, rng: np.random.Generator) -> CbicLayer:
    """Fit per-task offsets by gradient descent on the buffer cross-entropy.

    Offsets start at zero; the first task's offset stays pinned at zero.
    The partition needs to cover only the classes seen so far: logits of
    classes outside it (not yet encountered mid-stream) pass through
    uncorrected during fitting. A class id the model has no logit for is
    rejected.
    """
    k = model.layer_dims[-1]
    n_tasks = max(task_partition.values()) + 1
    _class_index(task_partition, k)
    mapped = np.array([c in task_partition for c in range(k)])
    task_idx = np.array([task_partition.get(c, 0) for c in range(k)])

    def corrected(betas, o):
        return o + np.where(mapped, betas[task_idx], 0.0)

    def grad(dq, o):
        d_betas = np.zeros(n_tasks)
        np.add.at(d_betas, task_idx[mapped], dq.sum(axis=0)[mapped])
        d_betas[0] = 0.0
        return d_betas

    betas = _descend(model, buffer, np.zeros(n_tasks), corrected, grad, config, rng)
    return CbicLayer(betas=betas, task_partition=dict(task_partition))
