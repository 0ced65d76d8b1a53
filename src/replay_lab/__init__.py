"""replay-lab: experience replay for class-incremental learning on a
from-scratch MLP, with reservoir-buffer variants, independent buffer
augmentation, per-class bias correction, and exponential learning-rate decay."""

__version__ = "0.1.0"
