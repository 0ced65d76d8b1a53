"""
Stream-wide exponential learning-rate decay
===========================================

The rate lr0 * exp(N * log_decay) depends only on the cumulative number N of
stream examples seen, so it keeps decaying across task boundaries instead of
restarting with each task. The decay is calibrated so the rate used at the
last gradient step of a run is exactly lr0/6.

This demo trains three synthetic tasks and prints the learning rate around
each boundary: no jumps, one smooth curve.
"""

from replay_lab.datasets import synthetic_class_il_stream
from replay_lab.trainer import TrainConfig, _train_one_task, init_state

stream = synthetic_class_il_stream(class_count=6, per_class_train=120,
                                   per_class_test=20, feature_dim=8,
                                   separation=4.0, classes_per_task=2, seed=0)
config = TrainConfig(buffer_capacity=20, stream_batch_size=10, hidden_dims=(16,),
                     lr0=0.2, elrd=True, seed=0)

state = init_state(stream, config)
per_task = [[info.lr for info in _train_one_task(state, task, config)]
            for task in stream.tasks]

for t, lrs in enumerate(per_task):
    print(f"task {t}: first step lr {lrs[0]:.5f}, last step lr {lrs[-1]:.5f}")
print(f"\ntarget final rate lr0/6 = {config.lr0 / 6:.5f}")
print(f"achieved final rate     = {per_task[-1][-1]:.5f}")
