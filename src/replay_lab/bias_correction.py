"""Post-hoc output calibration for class-incremental classifiers.

A ``Correction`` is one additive shift per class, ``q = o + shift``, fitted on
the replay buffer with the backbone frozen and applied to logits at
evaluation time only. Both fits give one shift to each group of classes and
leave the other classes alone (shift 0):

* ``fit_bic``  -- one group, the classes learned last, against the rest.
  This is the shift of Wu et al.'s BiC with its scale alpha fixed at 1.
* ``fit_cbic`` -- one group per task after the first; the first task's shift
  is pinned to zero to remove the softmax shift degeneracy, and classes
  outside the partition are left alone too.

The buffer cross-entropy is convex in the shifts, so each fit runs to the
optimum: it needs no seed, step size or epoch count. ``Correction.summary``
describes the correction for the run report, with the fit's diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mlp import Mlp
from .sampling import ReplayBuffer

GRAD_TOL = 1e-9      # stop once every shift's loss gradient is at most this
MAX_STEPS = 100      # stop after this many accepted steps
DAMPING = 1e-3       # Hessian damping, per unit of the gradient's max-norm
MAX_HALVINGS = 60    # line-search halvings before the fit gives up on a step
ARMIJO = 1e-4        # fraction of the predicted decrease a step must reach


@dataclass(frozen=True)
class Correction:
    """Per-class logit shift: ``shift`` is a ``(k,)`` array, ``summary`` the
    fitted parameters as the run report records them."""

    shift: np.ndarray
    summary: dict

    def apply(self, logits: np.ndarray) -> np.ndarray:
        """q_k = o_k + shift_k for every class k."""
        logits = np.asarray(logits, dtype=float)
        if logits.shape[-1] != self.shift.size:
            raise ValueError(f"{logits.shape[-1]} logits for a correction of "
                             f"{self.shift.size} classes")
        return logits + self.shift


def _class_index(classes, n_logits: int) -> list[int]:
    idx = sorted(classes)
    for c in (idx[0], idx[-1]):
        if not 0 <= c < n_logits:
            raise ValueError(f"class id {c} out of range for {n_logits} logits")
    return idx


def _fit_shifts(model: Mlp, buffer: ReplayBuffer, col: np.ndarray) -> tuple[np.ndarray, dict]:
    """Shifts ``b`` of the groups ``col[c] = j >= 0`` that minimise the mean
    buffer cross-entropy of the logits ``o_c + b[col[c]]`` (``o_c`` where
    ``col[c] < 0``), and the fit's diagnostics.

    The backbone is frozen, so the buffer's logits are computed once and
    each row is reduced to one log-sum-exp per group plus one of the rest
    (-inf if none). From ``b = 0``, each step solves ``(H + DAMPING * |g|
    I) d = -g``, with ``|g|`` the gradient's max-norm: the damping keeps the
    step finite where probabilities underflow and the Hessian ``H`` is
    singular. A backtracking line search halves the step until the loss
    drops by ``ARMIJO`` of the predicted decrease, so no accepted step
    raises the loss. The fit stops when ``|g| <= GRAD_TOL``, after
    ``MAX_STEPS`` steps, or when ``MAX_HALVINGS`` halvings find no step.
    """
    n_groups = col.max() + 1
    if n_groups == 0:
        return np.zeros(0), {"ce_before": None, "ce_after": None,
                             "grad_max_norm": 0.0, "iterations": 0}
    feats, labels = buffer.as_arrays()
    logits, _ = model.forward(feats)
    n = logits.shape[0]
    free = np.stack([np.logaddexp.reduce(logits[:, col == j], axis=1)
                     for j in range(n_groups)], axis=1)
    rest = np.logaddexp.reduce(logits[:, col < 0], axis=1, keepdims=True)
    target = np.bincount(col[labels] + 1, minlength=n_groups + 1)[1:] / n
    label_logit = logits[np.arange(n), labels].mean()

    def evaluate(b):
        """Buffer cross-entropy at shifts ``b`` and each row's group probabilities."""
        q = free + b
        lse = np.logaddexp(np.logaddexp.reduce(q, axis=1, keepdims=True), rest)
        return lse.mean() - target @ b - label_logit, np.exp(q - lse)

    b = np.zeros(n_groups)
    loss, probs = evaluate(b)
    ce_before = loss
    for steps in range(MAX_STEPS + 1):
        grad = probs.mean(axis=0) - target
        grad_max = float(np.abs(grad).max())
        if grad_max <= GRAD_TOL or steps == MAX_STEPS:
            break
        hess = (np.diag(probs.sum(axis=0)) - probs.T @ probs) / n
        step = np.linalg.solve(hess + DAMPING * grad_max * np.eye(n_groups), -grad)
        t = 1.0
        for _ in range(MAX_HALVINGS):
            trial_loss, trial_probs = evaluate(b + t * step)
            if trial_loss < loss + ARMIJO * t * (grad @ step):
                break
            t /= 2
        else:
            break
        b, loss, probs = b + t * step, trial_loss, trial_probs
    return b, {"ce_before": float(ce_before), "ce_after": float(loss),
               "grad_max_norm": grad_max, "iterations": steps}


def fit_bic(model: Mlp, buffer: ReplayBuffer, last_task_classes) -> Correction:
    """Fit one shift ``beta`` on the last task's classes against the rest.

    An empty class set, or a class id the model has no logit for, is
    rejected. The backbone is never touched.
    """
    classes = frozenset(int(c) for c in last_task_classes)
    if not classes:
        raise ValueError("last_task_classes must be non-empty")
    idx = _class_index(classes, model.layer_dims[-1])
    col = np.full(model.layer_dims[-1], -1)
    col[idx] = 0
    (beta,), diagnostics = _fit_shifts(model, buffer, col)
    return Correction(np.where(col >= 0, beta, 0.0),
                      {"type": "bic", "beta": float(beta), "classes": idx, **diagnostics})


def fit_cbic(model: Mlp, buffer: ReplayBuffer, task_partition: dict[int, int]) -> Correction:
    """Fit one shift per task after the first on the buffer cross-entropy.

    The first task's shift stays pinned at zero, so its logits are left
    alone like those of classes outside the partition (not yet encountered
    mid-stream). With no task after the first there is nothing to fit, and
    the buffer is not read. An empty partition, a class id the model has no
    logit for, or a negative task id, is rejected.
    """
    if not task_partition:
        raise ValueError("task_partition must be non-empty")
    k = model.layer_dims[-1]
    first = min(task_partition.values())
    if first < 0:
        raise ValueError(f"task id {first} is negative")
    _class_index(task_partition, k)
    # task t >= 1 is group t - 1; task 0 and unmapped classes are the rest
    col = np.array([task_partition.get(c, 0) - 1 for c in range(k)])
    shifts, diagnostics = _fit_shifts(model, buffer, col)
    betas = np.append(0.0, shifts)
    return Correction(betas[col + 1], {"type": "cbic", "betas": betas.tolist(), **diagnostics})
