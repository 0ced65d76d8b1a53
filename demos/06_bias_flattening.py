"""
Flattening the task-prediction distribution
===========================================

A single-head classifier trained on a class-incremental stream ends up
biased toward the classes it saw last: averaged over the test set, nearly
all of its softmax mass lands on the final task. Two small corrections,
fitted on a reservoir buffer collected during training (the model
itself stays frozen), push back:

* bias control fits one additive shift on the last task's logits (the
  scale alpha of the original BiC is fixed at 1 here),
* complete bias control fits one additive offset per task.

The demo trains a plain fine-tuning run with a 100-item side buffer, fits
both corrections, and prints the task-mass distribution before and after,
plus its KL divergence from uniform (0 would be perfectly flat).
"""

from dataclasses import replace

import numpy as np

from replay_lab.datasets import synthetic_class_il_stream
from replay_lab.evaluation import kl_to_uniform
from replay_lab.trainer import TrainConfig, run_class_il

stream = synthetic_class_il_stream(class_count=10, per_class_train=300,
                                   per_class_test=100, feature_dim=16,
                                   separation=4.0, classes_per_task=2, seed=0)
side_buffer = TrainConfig(buffer_capacity=100, stream_batch_size=10,
                          hidden_dims=(64, 64), lr0=0.2,
                          replay_enabled=False, seed=0)

cbic_run = run_class_il(stream, replace(side_buffer, cbic=True))
bic_run = run_class_il(stream, replace(side_buffer, bic=True))

raw = np.array(cbic_run.task_pred_distribution_raw)
with_cbic = np.array(cbic_run.task_pred_distribution)
with_bic = np.array(bic_run.task_pred_distribution)


def row(name, dist):
    masses = " ".join(f"{m:.3f}" for m in dist)
    print(f"{name:>12}: [{masses}]  KL to uniform {kl_to_uniform(dist):.3f}")


print("prediction mass per task (5 tasks, uniform would be 0.2 each):\n")
row("uncorrected", raw)
row("bic", with_bic)
row("cbic", with_cbic)

print(f"\nfitted per-task offsets: "
      + " ".join(f"{b:+.2f}" for b in cbic_run.correction["betas"]))
print(f"final average accuracy: with bic {bic_run.average_accuracy:.3f}, "
      f"with cbic {cbic_run.average_accuracy:.3f}")
