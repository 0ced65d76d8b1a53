"""Stochastic input transforms and independent re-augmentation of replay
draws.

The buffer stores raw feature vectors; independent buffer augmentation
transforms every draw with fresh randomness, so two draws of the same slot
almost always differ while the stored item never changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampling import ReplayBuffer


@dataclass(frozen=True)
class AugPolicy:
    """Random integer translation (zero-padded) followed by an optional
    horizontal flip, on images flattened to h*w*c vectors."""

    image_dims: tuple[int, int, int]
    max_shift: int = 0
    hflip_prob: float = 0.0

    def __post_init__(self):
        if len(self.image_dims) != 3 or min(self.image_dims) <= 0:
            raise ValueError(f"image_dims must be three positive sizes, got {self.image_dims}")
        h, w, _ = self.image_dims
        if self.max_shift < 0 or self.max_shift >= min(h, w):
            raise ValueError(
                f"max_shift must be in [0, min(h, w)), got {self.max_shift} for {h}x{w}")
        if not 0.0 <= self.hflip_prob <= 1.0:
            raise ValueError(f"hflip_prob must be in [0, 1], got {self.hflip_prob}")


def augment(policy: AugPolicy, features: np.ndarray,
            rng: np.random.Generator) -> np.ndarray:
    """Apply one random draw of the policy to a flattened image.

    Never mutates ``features``. Pixel values stay in [0, 1] because
    translation only introduces zero padding; with zero shift and no flip
    the output equals the input bit for bit.
    """
    h, w, c = policy.image_dims
    features = np.asarray(features)
    if features.shape != (h * w * c,):
        raise ValueError(
            f"feature length {features.shape} does not match image dims {policy.image_dims}")
    img = features.reshape(h, w, c)
    dy = int(rng.integers(-policy.max_shift, policy.max_shift + 1))
    dx = int(rng.integers(-policy.max_shift, policy.max_shift + 1))
    out = np.zeros_like(img)
    out[max(dy, 0):h + min(dy, 0), max(dx, 0):w + min(dx, 0)] = \
        img[max(-dy, 0):h + min(-dy, 0), max(-dx, 0):w + min(-dx, 0)]
    if rng.random() < policy.hflip_prob:
        out = out[:, ::-1, :]
    return out.reshape(-1)


def replay_with_iba(buffer: ReplayBuffer, batch_size: int, policy: AugPolicy,
                    rng: np.random.Generator, aug_rng: np.random.Generator):
    """Draw a replay batch with ``rng`` and re-augment each drawn instance
    independently with ``aug_rng``, so the draws and the augmentation can be
    ablated apart. Returns (slot ids, feature matrix, label vector)."""
    ids, feats, labels = buffer.draw_replay_batch(batch_size, rng)
    for k, row in enumerate(feats):
        feats[k] = augment(policy, row, aug_rng)
    return ids, feats, labels
