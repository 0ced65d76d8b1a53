"""replay-lab: experience replay for class-incremental learning on a
from-scratch MLP, with reservoir-buffer variants, independent buffer
augmentation, bias-correction layers, and exponential learning-rate decay."""

from .augmentation import AugPolicy, augment, replay_with_iba
from .bias_correction import BiasFitConfig, BicLayer, CbicLayer, fit_bic, fit_cbic
from .datasets import (Dataset, IdxFormatError, Task, TaskStream,
                       load_fashion_mnist, make_class_il_tasks,
                       parse_idx_images, parse_idx_labels, read_idx_file,
                       synthetic_class_il_stream, to_idx_images, to_idx_labels)
from .evaluation import (RunReport, average_final_accuracy, buffer_balance_mse,
                         kl_to_uniform, task_prediction_distribution)
from .mlp import (Mlp, finite_difference_grads, gradient_check, softmax,
                  softmax_cross_entropy)
from .sampling import (BALANCED_RESERVOIR, LOSS_AWARE_RESERVOIR, RESERVOIR,
                       RING, STRATEGIES, ReplayBuffer, ScoreVectors,
                       lars_scores, omission_probability)
from .schedule import ExpDecaySchedule, gamma_for_final_fraction
from .trainer import (AblationRow, RngStreams, StepInfo, TrainConfig,
                      TrainState, ablation_suite, er_train_step, init_state,
                      merge_tasks, method_label, run_class_il,
                      run_joint_baseline, run_sgd_baseline)

__version__ = "0.1.0"
