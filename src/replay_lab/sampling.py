"""Fixed-capacity replay buffer with pluggable update strategies.

The buffer is offered a data stream in batches: ``ReplayBuffer.update``
takes a batch of items in stream order and returns each item's slot, or -1
for an item it did not admit. A batch ends in the same state, random
generator included, as the same items offered one at a time. Four update
strategies are supported:

* ``reservoir``      -- classic reservoir sampling: every stream item ends up
  in the buffer with equal probability capacity/N.
* ``brs``            -- balanced reservoir sampling: same admission rule, but
  the evicted slot is drawn from the most represented class.
* ``lars``           -- loss-aware balanced reservoir sampling: eviction
  probabilities combine per-item class counts with negated stored training
  losses, so well-fit items from crowded classes go first.
* ``ring``           -- class-wise FIFO: each class keeps its newest
  capacity // classes items (kept for the balance study).

Stored items are copies of the offered raw rows, kept in preallocated
arrays. All randomness flows through an injected ``numpy.random.Generator``:
the reservoir strategies draw one uniform per item offered past the fill, in
one call per batch; it decides admission and, for ``brs`` and ``lars``, the
victim, so all three admit the same items. ``brs`` and ``lars`` take a
batch's victims from the buffer's class counts, counted once per batch and
then kept up to date by hand after each eviction. A buffer is owned by a
single training run and mutated sequentially.
"""

from __future__ import annotations

import math
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

    Every stored label lies in ``[0, class_count)``. For every strategy the
    filled slots are ``0..n_filled-1``; the slots after them hold label
    ``-1``. ``seen_count`` tracks how many stream items have been offered.

    Capacity 0 is the degenerate no-rehearsal buffer: updates only advance
    ``seen_count``.
    """

    def __init__(self, capacity: int, strategy: str, class_count: int):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
        if class_count < 1:
            raise ValueError(f"class_count must be >= 1, got {class_count}")
        self.capacity = capacity
        self.strategy = strategy
        self.class_count = class_count
        self.seen_count = 0
        self.last_insert_slot: int | None = None
        self.features: np.ndarray | None = None
        self.labels = np.full(capacity, -1, dtype=np.int64)
        self.loss = np.zeros(capacity)
        self.n_filled = 0
        # ring: the slot of each class's k-th item, k < capacity // class_count
        self._ring_table = np.zeros((class_count, capacity // class_count), dtype=np.int64)
        self._ring_next = np.zeros(class_count, dtype=np.int64)

    # -- inspection ---------------------------------------------------------

    @property
    def is_full(self) -> bool:
        return self.n_filled == self.capacity

    def class_counts(self) -> dict[int, int]:
        """Number of stored items per class id (absent classes omitted)."""
        counts = np.bincount(self.labels[:self.n_filled])
        present = np.flatnonzero(counts)
        return dict(zip(present.tolist(), counts[present].tolist()))

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the stored features and labels as (n, d) / (n,) arrays."""
        if self.n_filled == 0:
            raise ValueError("buffer is empty")
        return self.features[:self.n_filled].copy(), self.labels[:self.n_filled].copy()

    def audit(self) -> list[tuple[int, int, float]]:
        """(slot id, label, loss score) triples for run-report serialization."""
        n = self.n_filled
        return list(zip(range(n), self.labels[:n].tolist(), self.loss[:n].tolist()))

    # -- updates ------------------------------------------------------------

    def update(self, features, labels, losses, rng: np.random.Generator) -> np.ndarray:
        """Offer a batch of stream items, in stream order, to the buffer.

        ``features`` holds one row per item; ``labels`` and ``losses`` one
        value each. Returns each item's slot, or -1 for an item that was not
        admitted; an admitted row is copied into its slot. When two items of
        a batch take the same slot, the later one is what stays. The
        reservoir strategies make one ``rng.random`` call for the items past
        the fill, and ``ring`` draws nothing; the outcome, generator state
        included, is that of offering the items one at a time.
        ``seen_count`` grows by the batch size.

        The whole batch is validated before anything is written: labels
        must be integers in ``[0, class_count)``, losses must be finite and
        >= 0, and there must be one feature row per label, with the shape
        and dtype of the stored rows. ``last_insert_slot`` is the slot of
        the batch's last item, or None; it is kept for the benchmark's
        tracer.
        """
        features = np.asarray(features)
        labels = np.asarray(labels)
        losses = np.asarray(losses, dtype=float)
        n = labels.size
        if labels.ndim != 1 or losses.shape != labels.shape:
            raise ValueError(f"labels {labels.shape} and losses {losses.shape} "
                             "must hold one value per item")
        if len(features) != n:
            raise ValueError(f"{len(features)} feature rows for {n} labels")
        if self.features is not None:
            if features.shape[1:] != self.features.shape[1:]:
                raise ValueError(f"feature rows of shape {features.shape[1:]}, "
                                 f"stored rows are {self.features.shape[1:]}")
            # a cast on assignment would, say, truncate k / 255 floats to uint8 0
            if features.dtype != self.features.dtype:
                raise ValueError(f"feature rows of dtype {features.dtype}, "
                                 f"stored rows are {self.features.dtype}")
        if n:
            if labels.dtype.kind not in "iu":
                raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
            labels = labels.astype(np.int64, copy=False)
            if labels.min() < 0 or labels.max() >= self.class_count:
                bad = labels[(labels < 0) | (labels >= self.class_count)][0]
                raise ValueError(f"label {bad} out of range for class_count "
                                 f"{self.class_count}")
            _check_losses(losses)

        slots = np.full(n, -1, dtype=np.int64)
        if self.capacity > 0 and n:
            if self.strategy == RING:
                self._ring_slots(labels, slots)
            else:
                self._reservoir_slots(labels, losses, slots, rng)
            admitted = (slots >= 0).nonzero()[0]
            if admitted.size:
                if self.features is None:
                    self.features = np.empty((self.capacity, *features.shape[1:]),
                                             dtype=features.dtype)
                # of the items that take one slot, the last one stays
                last = dict(zip(slots[admitted].tolist(), admitted.tolist()))
                to, src = list(last), list(last.values())
                self.features[to] = features[src]
                self.labels[to] = labels[src]
                self.loss[to] = losses[src]
        self.seen_count += n
        self.last_insert_slot = int(slots[-1]) if n and slots[-1] >= 0 else None
        return slots

    def _reservoir_slots(self, labels, losses, slots, rng: np.random.Generator) -> None:
        seen, n, capacity = self.seen_count, labels.size, self.capacity
        fill = min(max(capacity - seen, 0), n)
        slots[:fill] = np.arange(seen, seen + fill)
        self.n_filled += fill
        if fill == n:
            return
        # Item i of the batch is offer number seen + i + 1: w is uniform on
        # [0, seen + i + 1), so w < capacity admits it with probability
        # capacity / (seen + i + 1). One call draws what one per item would.
        w = rng.random(n - fill) * np.arange(seen + fill + 1, seen + n + 1)
        hit = (w < capacity).nonzero()[0]
        if self.strategy == RESERVOIR:
            slots[fill + hit] = w[hit].astype(np.int64)
            return
        # Once admitted, w / capacity is uniform on [0, 1). BRS and LARS
        # pick each victim from it, in the buffer the items before it left.
        self.labels[seen:seen + fill] = labels[:fill]
        self.loss[seen:seen + fill] = losses[:fill]
        # The buffer is full from here on. Its class counts and their sum of
        # squares are counted once and kept up to date across the victims:
        # moving an item from class old to class new adds to the sum of
        # squares 2 * (count[new] - count[old] + 1), counted before the move.
        counts = np.bincount(self.labels, minlength=self.class_count)
        sumsq = int(counts @ counts)
        admitted = fill + hit
        for i, u, new in zip(admitted.tolist(), (w[hit] / capacity).tolist(),
                             labels[admitted].tolist()):
            slot = self._victim_slot(u, counts, sumsq)
            old = int(self.labels[slot])
            if old != new:
                sumsq += 2 * int(counts[new] - counts[old] + 1)
                counts[old] -= 1
                counts[new] += 1
            self.labels[slot] = new
            self.loss[slot] = losses[i]
            slots[i] = slot

    def _victim_slot(self, u: float, counts: np.ndarray, sumsq: int) -> int:
        """The slot of the full buffer that the uniform ``u`` in [0, 1)
        evicts, by inverse CDF, given the buffer's class ``counts`` and the
        sum of their squares."""
        per_slot = counts[self.labels]
        if self.strategy == BALANCED_RESERVOIR:
            # uniform over the slots of the most represented classes; the
            # incoming item is not stored yet, so its class is not counted
            eligible = (per_slot == counts.max()).nonzero()[0]
            return int(eligible[int(u * eligible.size)])
        cdf = _lars_probs(per_slot, self.loss, sumsq)[2].cumsum()
        return int((cdf / cdf[-1]).searchsorted(u, side="right"))

    def _ring_slots(self, labels, slots) -> None:
        segment = self._ring_table.shape[1]
        if segment == 0:
            return
        # k: each item's position among all items of its class offered so far
        counts = np.bincount(labels, minlength=self.class_count)
        order = np.argsort(labels, kind="stable")
        k = np.empty_like(labels)
        k[order] = np.arange(labels.size) - (np.cumsum(counts) - counts)[labels[order]]
        k += self._ring_next[labels]
        # a class's first `segment` items take the next free slots in stream
        # order; each later item takes the slot of the item `segment` before it
        first = (k < segment).nonzero()[0]
        self._ring_table[labels[first], k[first]] = self.n_filled + np.arange(first.size)
        self.n_filled += first.size
        slots[:] = self._ring_table[labels, k % segment]
        self._ring_next += counts

    # -- replay -------------------------------------------------------------

    def draw_replay_batch(self, batch_size: int, rng: np.random.Generator
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample ``batch_size`` filled slots uniformly with replacement.

        Returns (slot ids, features, labels); the ids let the caller push
        refreshed loss scores back to the right slots. The features are
        copies of the stored rows; any augmentation happens downstream.
        """
        if self.n_filled == 0:
            raise ValueError("cannot draw from an empty buffer")
        chosen = rng.integers(0, self.n_filled, size=batch_size)
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
        if indices.size:
            if not np.issubdtype(indices.dtype, np.integer):
                raise IndexError(f"slot indices must be integers, got dtype {indices.dtype}")
            unfilled = (indices < 0) | (indices >= self.n_filled)
            if unfilled.any():
                raise IndexError(f"slot {indices[unfilled][0]} is not a filled buffer slot")
        _check_losses(losses)
        self.loss[indices.astype(np.int64)] = losses


def _check_losses(losses: np.ndarray) -> None:
    # A NaN or infinite stored loss makes the LARS scores NaN, which turns
    # eviction silently uniform. The minimum is NaN or negative if any loss
    # is, and the maximum is inf if any loss is.
    if losses.size and not (losses.min() >= 0.0 and losses.max() < math.inf):
        bad = losses[~((losses >= 0.0) & (losses < math.inf))][0]
        raise ValueError(f"loss scores must be finite and >= 0, got {bad}")


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
    if buffer.n_filled == 0:
        raise ValueError("cannot score an empty buffer")
    labels, loss = buffer.labels[:buffer.n_filled], buffer.loss[:buffer.n_filled]
    counts = np.bincount(labels)
    s_balance = counts[labels].astype(float)
    alpha, s, probs = _lars_probs(s_balance, loss, int(counts @ counts))
    return ScoreVectors(s_balance=s_balance, s_loss=-loss, alpha=alpha, s=s, probs=probs)


def _lars_probs(per_slot: np.ndarray, loss: np.ndarray, sumsq: int
                ) -> tuple[float, np.ndarray, np.ndarray]:
    """``alpha``, ``s`` and ``probs`` of the loss-aware rule, from each
    filled slot's class count and stored loss; ``sumsq``, the sum of the
    squared class counts, is the L1 mass of ``per_slot``.

    Losses are >= 0, so ``loss.sum()`` is the L1 mass of the negated losses,
    and ``per_slot - loss * alpha`` equals ``-loss * alpha + per_slot`` bit
    for bit; ``s - s.min()`` is never negative.
    """
    loss_mass = loss.sum()
    alpha = float(sumsq / loss_mass) if loss_mass > 0 else 0.0
    s = per_slot - loss * alpha
    shifted = s - s.min()
    total = shifted.sum()
    probs = shifted / total if total > 0 else np.full(len(s), 1.0 / len(s))
    return alpha, s, probs


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
