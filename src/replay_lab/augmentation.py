"""Stochastic input transforms on whole batches, and independent
re-augmentation of replay draws.

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


def augment(policy: AugPolicy, rows: np.ndarray,
            rng: np.random.Generator) -> np.ndarray:
    """Apply an independent draw of the policy to every row of an
    ``(n, h*w*c)`` batch of flattened images; returns a new array of the
    same shape and dtype, leaving ``rows`` untouched.

    One ``rng.integers(-s, s + 1, size=(2, n))`` call draws every row's dy,
    then every row's dx; one ``rng.random(n)`` call draws every row's flip.
    Translation pads with zeros, so values stay in the input's range; with
    zero shift and no flip the output equals the input bit for bit.
    """
    h, w, c = policy.image_dims
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != h * w * c:
        raise ValueError(
            f"rows of shape {rows.shape} are not a batch of {h}x{w}x{c} images")
    n, s = rows.shape[0], policy.max_shift
    dy, dx = rng.integers(-s, s + 1, size=(2, n))
    flip = rng.random(n) < policy.hflip_prob
    hp, wp = h + 2 * s, w + 2 * s
    padded = np.zeros((n, hp, wp, c), dtype=rows.dtype)
    padded[:, s:s + h, s:s + w] = rows.reshape(n, h, w, c)
    # output pixel (i, j) reads padded pixel (i + s - dy, j' + s - dx), j' = j mirrored if flipped
    ys = np.arange(h) + s - dy[:, None]
    xs = np.where(flip[:, None], np.arange(w)[::-1], np.arange(w)) + s - dx[:, None]
    # gather whole pixels by their flat index in the padded batch
    at = (np.arange(n)[:, None, None] * hp + ys[:, :, None]) * wp + xs[:, None, :]
    return padded.reshape(-1, c)[at].reshape(n, -1)


def replay_with_iba(buffer: ReplayBuffer, batch_size: int, policy: AugPolicy,
                    rng: np.random.Generator, aug_rng: np.random.Generator):
    """Draw a replay batch with ``rng`` and re-augment every drawn instance
    independently with ``aug_rng`` in one ``augment`` call, so the draws and
    the augmentation can be ablated apart. Returns (slot ids, feature matrix,
    label vector)."""
    ids, feats, labels = buffer.draw_replay_batch(batch_size, rng)
    return ids, augment(policy, feats, aug_rng), labels
