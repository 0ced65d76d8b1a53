"""Post-hoc output calibration for class-incremental classifiers.

A ``Correction`` is one scale and one shift per class, ``q = o * scale +
shift``, fitted on the replay buffer with the backbone frozen and applied to
logits at evaluation time only. Two fits build one:

* ``fit_bic``  -- one affine pair (alpha, beta) on the logits of the classes
  learned last; every other class keeps scale 1 and shift 0.
* ``fit_cbic`` -- one additive offset per task on every logit of that task's
  classes; the first task's offset is pinned to zero to remove the softmax
  shift degeneracy, and classes outside the partition get shift 0.

``Correction.summary`` describes the correction for the run report.

The fit reduces each buffer row once, to the logits the correction moves
(BiC: the last task's; CBiC: one log-sum-exp per task after the first) plus
one log-sum-exp of the rest, and descends the buffer cross-entropy on those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mlp import Mlp
from .sampling import ReplayBuffer


@dataclass(frozen=True)
class BiasFitConfig:
    epochs: int
    batch_size: int
    lr: float


@dataclass(frozen=True)
class Correction:
    """Per-class logit correction: ``scale`` and ``shift`` are ``(k,)``
    arrays, ``summary`` the fitted parameters as the run report records them."""

    scale: np.ndarray
    shift: np.ndarray
    summary: dict

    def apply(self, logits: np.ndarray) -> np.ndarray:
        """q_k = o_k * scale_k + shift_k for every class k."""
        logits = np.asarray(logits, dtype=float)
        if logits.shape[-1] != self.scale.size:
            raise ValueError(f"{logits.shape[-1]} logits for a correction of "
                             f"{self.scale.size} classes")
        return logits * self.scale + self.shift


def _class_index(classes, n_logits: int) -> list[int]:
    idx = sorted(classes)
    for c in (idx[0], idx[-1]):
        if not 0 <= c < n_logits:
            raise ValueError(f"class id {c} out of range for {n_logits} logits")
    return idx


def _descend(model: Mlp, buffer: ReplayBuffer, params: np.ndarray, col: np.ndarray,
             corrected, grad, config: BiasFitConfig,
             rng: np.random.Generator) -> np.ndarray:
    """Minibatch gradient descent of ``params`` on the buffer cross-entropy.

    The backbone is frozen, so the buffer's logits are computed and reduced
    once: free column ``j`` to the log-sum-exp of the logits ``c`` with
    ``col[c] == j``, the rest (``col < 0``) to one log-sum-exp, -inf if none.
    ``corrected(params, z)`` maps free columns to corrected ones, and
    ``grad(dq, z)`` maps the loss gradient there to that of ``params``.
    """
    feats, labels = buffer.as_arrays()
    logits, _ = model.forward(feats)
    free = np.empty((logits.shape[0], col.max() + 1))
    for j in range(free.shape[1]):
        free[:, j] = np.logaddexp.reduce(logits[:, col == j], axis=1)
    rest = np.logaddexp.reduce(logits[:, col < 0], axis=1, keepdims=True)
    onehot = (col[labels][:, None] == np.arange(free.shape[1])).astype(float)
    for _ in range(config.epochs):
        order = rng.permutation(free.shape[0])
        free_e, rest_e, onehot_e = free[order], rest[order], onehot[order]
        for start in range(0, order.size, config.batch_size):
            rows = slice(start, start + config.batch_size)
            z = free_e[rows]
            q = corrected(params, z)
            # gradient of the mean cross-entropy: (softmax - onehot) / n
            q -= np.logaddexp(np.logaddexp.reduce(q, axis=1, keepdims=True), rest_e[rows])
            dq = np.exp(q, out=q)
            dq -= onehot_e[rows]
            params -= config.lr / z.shape[0] * grad(dq, z)
    return params


def fit_bic(model: Mlp, buffer: ReplayBuffer, last_task_classes,
            config: BiasFitConfig, rng: np.random.Generator) -> Correction:
    """Fit (alpha, beta) by gradient descent on the buffer cross-entropy.

    Starts from the identity (1, 0); zero epochs returns it unchanged. The
    backbone is never touched.
    """
    classes = frozenset(int(c) for c in last_task_classes)
    if not classes:
        raise ValueError("last_task_classes must be non-empty")
    idx = _class_index(classes, model.layer_dims[-1])
    col = np.full(model.layer_dims[-1], -1)
    col[idx] = np.arange(len(idx))

    def corrected(p, z):
        return p[0] * z + p[1]

    def grad(dq, z):
        return np.array([np.vdot(dq, z), dq.sum()])

    alpha, beta = _descend(model, buffer, np.array([1.0, 0.0]), col, corrected, grad,
                           config, rng)
    return Correction(np.where(col >= 0, alpha, 1.0), np.where(col >= 0, beta, 0.0),
                      {"type": "bic", "alpha": float(alpha), "beta": float(beta),
                       "classes": idx})


def fit_cbic(model: Mlp, buffer: ReplayBuffer, task_partition: dict[int, int],
             config: BiasFitConfig, rng: np.random.Generator) -> Correction:
    """Fit per-task offsets by gradient descent on the buffer cross-entropy.

    Offsets start at zero; the first task's offset stays pinned at zero, so
    its logits are left alone like those of classes outside the partition
    (not yet encountered mid-stream), which get shift 0. A class id the
    model has no logit for, or a negative task id, is rejected.
    """
    k = model.layer_dims[-1]
    first, last = min(task_partition.values()), max(task_partition.values())
    if first < 0:
        raise ValueError(f"task id {first} is negative")
    _class_index(task_partition, k)
    # task t >= 1 is free column t - 1; task 0 and unmapped classes are the rest
    col = np.array([task_partition.get(c, 0) - 1 for c in range(k)])

    def corrected(betas, z):
        return z + betas

    def grad(dq, z):
        return dq.sum(axis=0)

    betas = np.append(0.0, _descend(model, buffer, np.zeros(last), col, corrected, grad,
                                    config, rng))
    return Correction(np.ones(k), betas[col + 1], {"type": "cbic", "betas": betas.tolist()})
