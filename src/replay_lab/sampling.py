"""Fixed-capacity replay buffer with pluggable update strategies.

The buffer is filled from a data stream one example at a time. Four update
strategies are supported:

* ``reservoir``      -- classic reservoir sampling: every stream item ends up
  in the buffer with equal probability capacity/N.
* ``brs``            -- balanced reservoir sampling: same admission rule, but
  the evicted slot is drawn from the most represented class.
* ``lars``           -- loss-aware balanced reservoir sampling: eviction
  probabilities combine per-item class counts with negated stored training
  losses, so well-fit items from crowded classes go first.
* ``ring``           -- class-wise FIFO segments of size capacity // classes.

Stored items are copies of the offered raw rows, kept in preallocated
arrays. All randomness flows through an injected ``numpy.random.Generator``;
a buffer is owned by a single training run and mutated sequentially.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RESERVOIR = "reservoir"
BALANCED_RESERVOIR = "brs"
LOSS_AWARE_RESERVOIR = "lars"
RING = "ring"

STRATEGIES = (RESERVOIR, BALANCED_RESERVOIR, LOSS_AWARE_RESERVOIR, RING)


@dataclass
class ScoreVectors:
    """Intermediate quantities of the loss-aware eviction rule.

    ``s`` combines the two score vectors after ``alpha`` equalizes their L1
    masses; ``probs`` is the eviction distribution derived from ``s``.
    """

    s_balance: np.ndarray
    s_loss: np.ndarray
    alpha: float
    s: np.ndarray
    probs: np.ndarray


class ReplayBuffer:
    """Fixed-capacity store of past stream examples, held in three arrays.

    * ``features`` (capacity, d): copies of the admitted raw rows, allocated
      on the first admission with that row's shape and dtype;
    * ``labels`` (capacity,) int64: class ids, ``-1`` marking an empty slot;
    * ``loss`` (capacity,) float64: the most recent training loss of each
      item (used only by the loss-aware strategy; refreshed whenever the
      item is drawn for replay).

    The filled slots are those with ``labels >= 0``. ``seen_count`` tracks
    how many stream items have been offered; the reservoir-family
    strategies fill slots ``0..capacity-1`` in order, so the number of
    filled slots is ``min(seen_count, capacity)``. The ring strategy instead
    keeps one FIFO segment of ``capacity // class_count`` slots per class
    (remainder slots stay unused), so its fill pattern is not contiguous.

    Capacity 0 is the degenerate no-rehearsal buffer: updates only advance
    ``seen_count``.
    """

    def __init__(self, capacity: int, strategy: str = RESERVOIR,
                 class_count: int | None = None):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
        if strategy == RING and not class_count:
            raise ValueError("ring strategy requires a declared class_count")
        self.capacity = capacity
        self.strategy = strategy
        self.class_count = class_count
        self.seen_count = 0
        self.last_insert_slot: int | None = None
        self.features: np.ndarray | None = None
        self.labels = np.full(capacity, -1, dtype=np.int64)
        self.loss = np.zeros(capacity)
        if strategy == RING:
            self._segment = capacity // class_count
            self._ring_next = [0] * class_count

    # -- inspection ---------------------------------------------------------

    @property
    def n_filled(self) -> int:
        return int(np.count_nonzero(self.labels >= 0))

    @property
    def is_full(self) -> bool:
        return self.n_filled == self.capacity

    def filled_ids(self) -> np.ndarray:
        """Slot indices currently holding an example, ascending."""
        return np.flatnonzero(self.labels >= 0)

    def _label_counts(self) -> np.ndarray:
        return np.bincount(self.labels[self.labels >= 0])

    def class_counts(self) -> dict[int, int]:
        """Number of stored items per class id (absent classes omitted)."""
        counts = self._label_counts()
        present = np.flatnonzero(counts)
        return dict(zip(present.tolist(), counts[present].tolist()))

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the stored features and labels as (n, d) / (n,) arrays."""
        ids = self.filled_ids()
        if ids.size == 0:
            raise ValueError("buffer is empty")
        return self.features[ids], self.labels[ids]

    def audit(self) -> list[tuple[int, int, float]]:
        """(slot id, label, loss score) triples for run-report serialization."""
        ids = self.filled_ids()
        return list(zip(ids.tolist(), self.labels[ids].tolist(), self.loss[ids].tolist()))

    # -- updates ------------------------------------------------------------

    def update(self, features, label: int, loss: float,
               rng: np.random.Generator) -> None:
        """Offer one stream item to the buffer under the configured strategy.

        An admitted item is copied into its slot. Always increments
        ``seen_count`` by exactly 1. Afterwards, ``last_insert_slot`` holds
        the slot the item went into, or None when it was not admitted.
        """
        if label < 0:
            raise ValueError(f"labels must be >= 0, got {label}")
        self.last_insert_slot = None
        if self.capacity > 0:
            slot = self._ring_slot(label) if self.strategy == RING else self._reservoir_slot(rng)
            if slot is not None:
                if self.features is None:
                    row = np.asarray(features)
                    self.features = np.empty((self.capacity, *row.shape), dtype=row.dtype)
                self.features[slot] = features
                self.labels[slot] = label
                self.loss[slot] = loss
                self.last_insert_slot = slot
        self.seen_count += 1

    def _reservoir_slot(self, rng: np.random.Generator) -> int | None:
        if self.seen_count < self.capacity:
            return self.seen_count
        # Uniform over {0..seen_count} inclusive: seen_count+1 outcomes, so
        # P(draw < capacity) = capacity / (seen_count + 1), the admission
        # probability shared by all reservoir-family strategies.
        j = int(rng.integers(0, self.seen_count + 1))
        if j >= self.capacity:
            return None
        if self.strategy == BALANCED_RESERVOIR:
            # The incoming item is not in the buffer yet, so it contributes
            # nothing to the class counts used for victim selection.
            counts = self._label_counts()
            tied = np.flatnonzero(counts == counts.max())
            cls = tied[int(rng.integers(0, tied.size))]
            members = np.flatnonzero(self.labels == cls)
            return int(members[int(rng.integers(0, members.size))])
        if self.strategy == LOSS_AWARE_RESERVOIR:
            return int(rng.choice(self.capacity, p=lars_scores(self).probs))
        return j

    def _ring_slot(self, label: int) -> int | None:
        if label >= self.class_count:
            raise ValueError(
                f"label {label} out of range for declared class_count {self.class_count}")
        if self._segment == 0:
            return None
        slot = label * self._segment + self._ring_next[label] % self._segment
        self._ring_next[label] += 1
        return slot

    # -- replay -------------------------------------------------------------

    def draw_replay_batch(self, batch_size: int, rng: np.random.Generator
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample ``batch_size`` filled slots uniformly with replacement.

        Returns (slot ids, features, labels); the ids let the caller push
        refreshed loss scores back to the right slots. The features are
        copies of the stored rows; any augmentation happens downstream.
        """
        ids = self.filled_ids()
        if ids.size == 0:
            raise ValueError("cannot draw from an empty buffer")
        chosen = ids[rng.integers(0, ids.size, size=batch_size)]
        return chosen, self.features[chosen], self.labels[chosen]

    def refresh_loss_scores(self, indices, losses) -> None:
        """Overwrite the stored loss of each indexed slot with a fresh value.

        Only the loss scores change; features and labels are untouched. The
        whole input is validated before anything is written; for a slot
        listed more than once, its last loss wins.
        """
        indices = np.asarray(indices)
        losses = np.asarray(losses, dtype=float)
        if len(indices) != len(losses):
            raise ValueError("indices and losses must have the same length")
        if indices.size and not np.issubdtype(indices.dtype, np.integer):
            raise IndexError(f"slot indices must be integers, got dtype {indices.dtype}")
        unfilled = ~np.isin(indices, self.filled_ids())
        if unfilled.any():
            raise IndexError(f"slot {indices[unfilled][0]} is not a filled buffer slot")
        bad = ~(losses >= 0)  # also catches NaN
        if bad.any():
            raise ValueError(f"loss scores must be >= 0, got {losses[bad][0]}")
        self.loss[indices.astype(np.int64)] = losses


def lars_scores(buffer: ReplayBuffer) -> ScoreVectors:
    """Eviction scores of the loss-aware balanced strategy.

    Per filled slot k: ``s_balance[k]`` is the buffer count of slot k's
    class and ``s_loss[k]`` is its negated stored loss. ``alpha`` rescales
    the loss term so both vectors carry equal L1 mass (``alpha = 0`` when
    every stored loss is zero). The combined score ``s = s_loss * alpha +
    s_balance`` sums to zero whenever losses are non-negative, so a direct
    normalization is undefined; instead the scores are shifted by their
    minimum and normalized, falling back to uniform when all entries tie.
    """
    ids = buffer.filled_ids()
    if ids.size == 0:
        raise ValueError("cannot score an empty buffer")
    labels = buffer.labels[ids]
    s_balance = np.bincount(labels)[labels].astype(float)
    s_loss = -buffer.loss[ids]
    loss_mass = np.abs(s_loss).sum()
    alpha = float(np.abs(s_balance).sum() / loss_mass) if loss_mass > 0 else 0.0
    s = s_loss * alpha + s_balance
    shifted = np.maximum(s - s.min(), 0.0)
    total = shifted.sum()
    if total > 0:
        probs = shifted / total
    else:
        probs = np.full(len(s), 1.0 / len(s))
    return ScoreVectors(s_balance=s_balance, s_loss=s_loss, alpha=alpha, s=s, probs=probs)


def omission_probability(class_count: int, capacity: int) -> float:
    """Probability that a uniform sample of ``capacity`` items from
    ``class_count`` balanced classes leaves a given class out entirely:
    (1 - 1/C)^B. A single class can never be omitted."""
    if class_count < 1:
        raise ValueError(f"class_count must be >= 1, got {class_count}")
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    if class_count == 1:
        return 0.0
    return float((1.0 - 1.0 / class_count) ** capacity)
