"""Tests for the replay buffer strategies and their statistical guarantees."""

from collections import Counter

import numpy as np
import pytest

from replay_lab.sampling import (BALANCED_RESERVOIR, LOSS_AWARE_RESERVOIR,
                                 RESERVOIR, STRATEGIES, ReplayBuffer,
                                 ScoreVectors, lars_scores, omission_probability)

NO_FEATURES = np.empty(0)
# class ids in these tests lie below this
CLASS_COUNT = 20


def offer(buf, label, rng, loss=0.0, features=NO_FEATURES):
    """Offer one item; return its slot, or -1 when it was not admitted."""
    return int(buf.update(np.asarray(features)[None], [label], [loss], rng)[0])


def assert_buffer_invariants(buf):
    """What every strategy keeps true after any sequence of offers: the
    filled slots are the first min(seen_count, capacity), and the rest stay
    empty."""
    assert isinstance(buf.n_filled, int)
    assert 0 <= buf.n_filled <= buf.capacity
    filled = buf.labels[:buf.n_filled]
    assert np.all((filled >= 0) & (filled < buf.class_count))
    assert np.all(buf.labels[buf.n_filled:] == -1)
    assert buf.n_filled == min(buf.seen_count, buf.capacity)


def fill_buffer(strategy, labels, losses=None, capacity=None, seed=0, class_count=CLASS_COUNT):
    capacity = capacity if capacity is not None else len(labels)
    buf = ReplayBuffer(capacity, strategy, class_count=class_count)
    rng = np.random.default_rng(seed)
    losses = losses if losses is not None else [0.0] * len(labels)
    buf.update(np.empty((len(labels), 0)), labels, losses, rng)
    return buf


class TestFillPhase:
    def test_first_item_lands_in_slot_zero(self):
        buf = ReplayBuffer(12, RESERVOIR, class_count=4)
        assert offer(buf, 3, np.random.default_rng(0)) == 0
        assert buf.seen_count == 1
        assert buf.n_filled == 1
        assert buf.labels[0] == 3

    @pytest.mark.parametrize("strategy", [RESERVOIR, BALANCED_RESERVOIR, LOSS_AWARE_RESERVOIR])
    def test_fill_is_contiguous_append(self, strategy):
        buf = fill_buffer(strategy, labels=[5, 1, 4], capacity=8)
        assert buf.labels.tolist() == [5, 1, 4, -1, -1, -1, -1, -1]
        assert buf.n_filled == 3

    def test_lars_fill_stores_loss(self):
        buf = fill_buffer(LOSS_AWARE_RESERVOIR, labels=[0, 1], losses=[0.3, 2.0], capacity=4)
        assert buf.loss[:2].tolist() == [0.3, 2.0]
        assert buf.labels[2:].tolist() == [-1, -1]

    def test_seen_count_increments_by_one_per_update(self):
        buf = fill_buffer(RESERVOIR, labels=[0] * 40, capacity=5)
        assert buf.seen_count == 40
        assert buf.n_filled == 5

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_negative_label_rejected(self, strategy):
        # -1 marks an empty slot, so no stored label may be negative
        buf = ReplayBuffer(4, strategy, class_count=2)
        with pytest.raises(ValueError):
            offer(buf, -1, np.random.default_rng(0))
        assert buf.n_filled == 0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_label_at_or_above_class_count_rejected(self, strategy):
        buf = ReplayBuffer(4, strategy, class_count=2)
        with pytest.raises(ValueError, match="out of range"):
            offer(buf, 2, np.random.default_rng(0))
        assert buf.n_filled == 0 and buf.seen_count == 0

    @pytest.mark.parametrize("loss", [float("nan"), -1.0, float("inf")])
    def test_bad_loss_rejected(self, loss):
        # a NaN or infinite stored loss would turn LARS eviction silently uniform
        buf = fill_buffer(LOSS_AWARE_RESERVOIR, labels=[0, 1, 0], losses=[1.0, 2.0, 0.5],
                          capacity=4)
        with pytest.raises(ValueError):
            offer(buf, 2, np.random.default_rng(0), loss=loss)
        assert buf.seen_count == 3
        assert buf.labels[3] == -1

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_n_filled_follows_seen_count_through_the_fill(self, strategy):
        buf = ReplayBuffer(4, strategy, class_count=3)
        rng = np.random.default_rng(0)
        for seen in range(1, 8):
            offer(buf, seen % 3, rng, loss=1.0)
            assert buf.n_filled == min(seen, 4)
            assert buf.is_full == (seen >= 4)
            assert_buffer_invariants(buf)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_n_filled_is_read_only(self, strategy):
        # it is read from seen_count, so no code can set it out of step
        buf = fill_buffer(strategy, labels=[0, 1], capacity=4)
        with pytest.raises(AttributeError):
            buf.n_filled = 4
        assert buf.n_filled == 2

    def test_capacity_zero_is_a_no_op_store(self):
        buf = ReplayBuffer(0, RESERVOIR, class_count=CLASS_COUNT)
        slots = buf.update(np.empty((3, 0)), [0, 1, 2], [0.0] * 3, np.random.default_rng(0))
        assert slots.tolist() == [-1, -1, -1]
        assert buf.seen_count == 3
        assert buf.n_filled == 0


class CountingGenerator:
    """A seeded generator that records the name of every method called."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def record(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)
        return record


def seeded_stream(n, class_count, seed=0):
    data = np.random.default_rng(1000 + seed)
    return (data.uniform(size=(n, 3)), data.integers(0, class_count, size=n),
            data.uniform(0.0, 3.0, size=n))


def offer_in_batches(strategy, capacity, class_count, sizes, seed=0):
    """Offer one seeded stream of ``sum(sizes)`` items in batches of the
    given sizes; return the buffer, its generator and every item's slot."""
    features, labels, losses = seeded_stream(sum(sizes), class_count, seed)
    buf = ReplayBuffer(capacity, strategy, class_count=class_count)
    rng = np.random.default_rng(seed)
    bounds = np.cumsum([0, *sizes])
    slots = [buf.update(features[a:b], labels[a:b], losses[a:b], rng)
             for a, b in zip(bounds[:-1], bounds[1:])]
    return buf, rng, np.concatenate(slots)


def offer_by_reference(strategy, capacity, class_count, stream, seed=0):
    """The per-item rule, one scalar draw at a time, written into a buffer's
    arrays by hand: the reference that batched offers must reproduce.
    ``stream`` is (features, labels, losses) with 3 features per item."""
    features, labels, losses = stream
    n = len(labels)
    buf = ReplayBuffer(capacity, strategy, class_count=class_count)
    buf.features = np.empty((capacity, 3))
    rng = np.random.default_rng(seed)
    slots = np.full(n, -1)
    for seen in range(n):
        buf.seen_count = seen
        y = labels[seen]
        if capacity == 0:
            continue
        if seen < capacity:
            slots[seen] = seen
        elif (w := rng.random() * (seen + 1)) < capacity:
            u = w / capacity
            if strategy == RESERVOIR:
                slots[seen] = int(w)
            elif strategy == BALANCED_RESERVOIR:
                count = Counter(buf.labels.tolist())
                most = max(count.values())
                majority = [k for k, c in enumerate(buf.labels.tolist()) if count[c] == most]
                slots[seen] = majority[int(u * len(majority))]
            else:
                cdf = np.cumsum(lars_scores(buf).probs)
                slots[seen] = min(k for k in range(capacity) if u < cdf[k] / cdf[-1])
        if slots[seen] >= 0:
            slot = slots[seen]
            buf.features[slot], buf.labels[slot], buf.loss[slot] = \
                features[seen], y, losses[seen]
    buf.seen_count = n
    return buf, rng, slots


class TestBatchedUpdate:
    """A batch must leave exactly what offering its items one at a time
    leaves, and what the per-item reference leaves: the same slots, stored
    items, count and generator state."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("capacity, class_count, sizes", [
        (8, 3, [5, 7, 1, 30, 17]),   # the second batch straddles the end of the fill
        (3, 4, [40, 25]),            # most items of a batch are not admitted
        (0, 3, [4, 9]),              # no-rehearsal buffer
        (2, 5, [6, 10]),             # fewer slots than classes
        (6, 2, [1, 1, 1, 1, 1, 1, 1, 1]),   # batches of one
    ])
    def test_batches_match_one_item_at_a_time(self, strategy, capacity, class_count, sizes):
        for seed in range(5):
            batched, b_rng, b_slots = offer_in_batches(strategy, capacity, class_count,
                                                       sizes, seed)
            assert_buffer_invariants(batched)
            filled = batched.n_filled
            for other in (offer_in_batches(strategy, capacity, class_count,
                                           [1] * sum(sizes), seed),
                          offer_by_reference(strategy, capacity, class_count,
                                             seeded_stream(sum(sizes), class_count, seed),
                                             seed)):
                buf, rng, slots = other
                np.testing.assert_array_equal(b_slots, slots)
                np.testing.assert_array_equal(batched.labels, buf.labels)
                np.testing.assert_array_equal(batched.loss, buf.loss)
                assert buf.n_filled == filled
                if filled:
                    np.testing.assert_array_equal(batched.features[:filled],
                                                  buf.features[:filled])
                assert batched.seen_count == buf.seen_count == sum(sizes)
                assert b_rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_one_generator_call_per_update(self, strategy):
        # one `random` call per batch that runs past the fill; the victims
        # draw nothing
        buf = ReplayBuffer(9, strategy, class_count=3)
        rng = CountingGenerator(0)
        features, labels, losses = seeded_stream(80, 3)
        buf.update(features[:5], labels[:5], losses[:5], rng)
        assert rng.calls == []
        for a, b in ((5, 40), (40, 80)):
            rng.calls.clear()
            slots = buf.update(features[a:b], labels[a:b], losses[a:b], rng)
            past_fill = slots[max(buf.capacity - a, 0):]
            assert np.count_nonzero(past_fill >= 0) >= 2
            assert rng.calls == ["random"]

    @pytest.mark.parametrize("strategy", [BALANCED_RESERVOIR, LOSS_AWARE_RESERVOIR])
    def test_class_counts_built_once_per_update(self, strategy, monkeypatch):
        # the victims of a batch share one bincount, however many there are
        buf = ReplayBuffer(9, strategy, class_count=3)
        features, labels, losses = seeded_stream(200, 3)
        rng = np.random.default_rng(0)
        buf.update(features[:9], labels[:9], losses[:9], rng)
        calls = []
        bincount = np.bincount

        def counting_bincount(*args, **kwargs):
            calls.append(args[0].size)
            return bincount(*args, **kwargs)
        monkeypatch.setattr(np, "bincount", counting_bincount)
        victims = []
        for a, b in ((9, 11), (11, 40), (40, 200)):
            calls.clear()
            victims.append(int(np.count_nonzero(buf.update(features[a:b], labels[a:b],
                                                           losses[a:b], rng) >= 0)))
            assert calls == [9]
        assert len(set(victims)) == 3

    def test_capacity_zero_draws_nothing(self):
        for strategy in STRATEGIES:
            _, rng, slots = offer_in_batches(strategy, 0, 3, [7])
            assert slots.tolist() == [-1] * 7
            assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    @pytest.mark.parametrize("strategy", [RESERVOIR, BALANCED_RESERVOIR, LOSS_AWARE_RESERVOIR])
    def test_later_item_wins_a_slot_taken_twice(self, strategy):
        # 2 slots and 60 items in one batch: admitted items share slots
        buf, _, slots = offer_in_batches(strategy, 2, 3, [60])
        features, labels, losses = seeded_stream(60, 3)
        admitted = slots[slots >= 0]
        assert admitted.size > len(set(admitted.tolist()))
        for slot in (0, 1):
            last = np.flatnonzero(slots == slot)[-1]
            assert buf.labels[slot] == labels[last]
            assert buf.loss[slot] == losses[last]
            np.testing.assert_array_equal(buf.features[slot], features[last])

    def test_last_insert_slot_is_that_of_the_last_item(self):
        buf = ReplayBuffer(2, RESERVOIR, class_count=1)
        rng = np.random.default_rng(0)
        slots = buf.update(np.empty((3, 0)), [0, 0, 0], [0.0] * 3, rng)
        assert buf.last_insert_slot == (slots[-1] if slots[-1] >= 0 else None)
        buf.update(np.empty((0, 0)), [], [], rng)
        assert buf.last_insert_slot is None and buf.seen_count == 3


def replacements(slots, labels, capacity):
    """How many admitted items replaced a stored item of their own class, and
    how many one of another class."""
    held, same, other = [-1] * capacity, 0, 0
    for slot, label in zip(slots.tolist(), labels.tolist()):
        if slot >= 0:
            same += held[slot] == label
            other += held[slot] not in (-1, label)
            held[slot] = label
    return same, other


class TestWholeStreamBatch:
    """A whole stream in one `update` call, with the victims' class counts
    kept across all of it, leaves what the per-item reference leaves."""

    @pytest.mark.parametrize("strategy", [BALANCED_RESERVOIR, LOSS_AWARE_RESERVOIR])
    @pytest.mark.parametrize("case", ["balance-toy", "500-slots", "mostly-one-class"])
    def test_matches_the_per_item_reference(self, strategy, case):
        data = np.random.default_rng(7)
        if case == "balance-toy":
            # 6 classes of 170 items, shuffled, into 12 slots; zero losses
            capacity, class_count = 12, 6
            labels = data.permutation(np.repeat(np.arange(6), 170))
            losses = np.zeros(labels.size)
        elif case == "500-slots":
            capacity, class_count = 500, 10
            labels = data.integers(0, 10, size=3000)
            losses = data.uniform(0.01, 3.0, size=3000)
        else:
            # nine items in ten are class 0, so most victims share the
            # incoming item's class and leave the counts as they were
            capacity, class_count = 8, 2
            labels = (data.random(400) < 0.1).astype(np.int64)
            losses = data.uniform(0.01, 3.0, size=400)
        features = data.uniform(size=(labels.size, 3))
        buf = ReplayBuffer(capacity, strategy, class_count)
        rng = np.random.default_rng(3)
        slots = buf.update(features, labels, losses, rng)
        ref, ref_rng, ref_slots = offer_by_reference(strategy, capacity, class_count,
                                                     (features, labels, losses), seed=3)
        np.testing.assert_array_equal(slots, ref_slots)
        np.testing.assert_array_equal(buf.labels, ref.labels)
        np.testing.assert_array_equal(buf.loss, ref.loss)
        np.testing.assert_array_equal(buf.features, ref.features)
        assert buf.seen_count == ref.seen_count
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        same, other = replacements(slots, labels, capacity)
        assert same > 0 and other > 0


class TestBatchValidation:
    """A bad item anywhere in a batch raises and writes nothing, not even
    the items before it."""

    BAD = {
        "label at class_count": dict(labels=[0, 1, 2, 0, 1, 3]),
        "negative label": dict(labels=[0, 1, 2, 0, 1, -1]),
        "float labels": dict(labels=[0.0, 1.0, 2.0, 0.0, 1.0, 2.0]),
        "NaN loss": dict(losses=[0.5] * 5 + [float("nan")]),
        "negative loss": dict(losses=[0.5] * 5 + [-0.1]),
        "infinite loss": dict(losses=[0.5] * 5 + [float("inf")]),
        "one row short": dict(features=np.ones((5, 2))),
        "rows of another shape": dict(features=np.ones((6, 3))),
        "rows of another dtype": dict(features=np.ones((6, 2), dtype=np.uint8)),
        "losses of another length": dict(losses=[0.5] * 5),
    }

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("case", list(BAD))
    def test_bad_batch_leaves_buffer_and_generator_untouched(self, strategy, case):
        buf = ReplayBuffer(4, strategy, class_count=3)
        rng = np.random.default_rng(0)
        buf.update(np.zeros((3, 2)), [0, 1, 2], [1.0, 1.0, 1.0], rng)
        batch = dict(features=np.ones((6, 2)), labels=[0, 1, 2, 0, 1, 2],
                     losses=[0.5] * 6)
        batch.update(self.BAD[case])
        before = (buf.features.copy(), buf.labels.copy(), buf.loss.copy(),
                  buf.seen_count, buf.last_insert_slot, rng.bit_generator.state)
        with pytest.raises(ValueError):
            buf.update(batch["features"], batch["labels"], batch["losses"], rng)
        np.testing.assert_array_equal(buf.features, before[0])
        np.testing.assert_array_equal(buf.labels, before[1])
        np.testing.assert_array_equal(buf.loss, before[2])
        assert (buf.seen_count, buf.last_insert_slot) == before[3:5]
        assert rng.bit_generator.state == before[5]

    def test_float_rows_offered_to_uint8_rows_are_rejected_naming_both(self):
        # assigning k / 255 floats to uint8 slots would truncate them to 0
        buf = ReplayBuffer(4, RESERVOIR, class_count=3)
        rng = np.random.default_rng(0)
        buf.update(np.full((2, 2), 255, dtype=np.uint8), [0, 1], [1.0, 1.0], rng)
        with pytest.raises(ValueError, match="dtype float64, stored rows are uint8"):
            buf.update(np.ones((2, 2)), [0, 1], [1.0, 1.0], rng)
        assert buf.features.dtype == np.uint8
        np.testing.assert_array_equal(buf.features[:2], 255)
        assert buf.seen_count == 2


class TestReservoir:
    def test_inclusion_frequency_matches_guarantee(self):
        # Every stream item should sit in the final buffer with probability
        # capacity / N; checked within 3 binomial standard deviations.
        n_items, capacity, runs = 200, 10, 800
        hits = np.zeros(n_items)
        for run in range(runs):
            rng = np.random.default_rng(np.random.SeedSequence([42, run]))
            buf = ReplayBuffer(capacity, RESERVOIR, class_count=1)
            buf.update(np.empty((n_items, 0)), np.zeros(n_items, dtype=np.int64),
                       np.arange(n_items, dtype=float), rng)
            assert_buffer_invariants(buf)
            np.add.at(hits, buf.loss.astype(np.int64), 1)
        freq = hits / runs
        p = capacity / n_items
        sd = np.sqrt(p * (1 - p) / runs)
        assert np.mean(np.abs(freq - p) <= 3 * sd) >= 0.99

    def test_admission_probability_shared_by_all_reservoir_strategies(self):
        # Admission of the incoming item at step N+1 has probability
        # capacity/(N+1) regardless of the eviction rule: the victim draws
        # nothing, so every strategy admits the same items from the same
        # generator, run by run.
        capacity, n_items, runs = 10, 60, 2000
        admitted = np.zeros(n_items)
        for run in range(runs):
            outcomes = []
            for strategy in (RESERVOIR, BALANCED_RESERVOIR, LOSS_AWARE_RESERVOIR):
                rng = np.random.default_rng(np.random.SeedSequence([7, run]))
                buf = ReplayBuffer(capacity, strategy, class_count=4)
                mask = buf.update(np.empty((n_items, 0)), np.arange(n_items) % 4,
                                  np.full(n_items, 0.1), rng) >= 0
                assert_buffer_invariants(buf)
                outcomes.append((mask.tolist(), rng.bit_generator.state))
            assert outcomes[0] == outcomes[1] == outcomes[2], run
            admitted += mask
        freq = admitted / runs
        p = np.minimum(1.0, capacity / (np.arange(n_items) + 1.0))
        sd = np.sqrt(p * (1 - p) / runs)
        # 50 items have 0 < p < 1; 4 sd is the Bonferroni bound for 50
        # tests, a family-wise false-failure rate of about 0.3%
        assert np.all(np.abs(freq - p) <= 4 * sd + 1e-12)


class TestBalancedReservoir:
    def test_victim_comes_from_unique_majority_class(self):
        # Buffer [A, A, B]: class A is the unique argmax, so any admitted
        # replacement must evict slot 0 or 1.
        for seed in range(200):
            buf = fill_buffer(BALANCED_RESERVOIR, labels=[0, 0, 1], capacity=3, seed=seed)
            rng = np.random.default_rng(seed)
            before = (buf.labels[2], buf.loss[2], buf.features[2].copy())
            slot = offer(buf, 2, rng)
            if slot >= 0:
                assert slot in (0, 1)
                assert buf.labels[2] == before[0] and buf.loss[2] == before[1]
                np.testing.assert_array_equal(buf.features[2], before[2])

    def test_never_evicts_strictly_underrepresented_class(self):
        for seed in range(50):
            buf = fill_buffer(BALANCED_RESERVOIR, labels=[0, 0, 0, 1, 2, 2], capacity=6, seed=seed)
            rng = np.random.default_rng(1000 + seed)
            slot = offer(buf, 3, rng)
            assert_buffer_invariants(buf)
            if slot >= 0:
                # class 1 (count 1) and class 2 (count 2) are both below the
                # max count 3, so only class-0 slots are eligible
                assert slot in (0, 1, 2)

    def test_incoming_item_class_does_not_count(self):
        # Buffer [A, B] with incoming B: if the incoming label were counted,
        # B would be the unique argmax and slot 1 would always lose. With it
        # excluded the counts tie, so slot 0 must be evicted sometimes.
        victims = set()
        for seed in range(300):
            buf = fill_buffer(BALANCED_RESERVOIR, labels=[0, 1], capacity=2, seed=seed)
            slot = offer(buf, 1, np.random.default_rng(seed))
            if slot >= 0:
                victims.add(slot)
        assert victims == {0, 1}

    def test_tied_classes_both_evictable(self):
        overwritten = set()
        for seed in range(300):
            buf = fill_buffer(BALANCED_RESERVOIR, labels=[0, 0, 1, 1], capacity=4, seed=seed)
            slot = offer(buf, 2, np.random.default_rng(seed))
            if slot >= 0:
                overwritten.add(slot)
        assert overwritten == {0, 1, 2, 3}

    def test_victim_uniform_over_slots_of_tied_majority_classes(self):
        # classes 0 and 1 tie at two items each: each of their four slots
        # is evicted with probability 1/4, checked within 4 binomial sd
        hits = np.zeros(5)
        for seed in range(4000):
            buf = fill_buffer(BALANCED_RESERVOIR, labels=[0, 0, 1, 1, 2], seed=seed)
            slot = offer(buf, 2, np.random.default_rng(seed))
            if slot >= 0:
                hits[slot] += 1
        admitted = hits.sum()
        assert hits[4] == 0
        sd = np.sqrt(0.25 * 0.75 / admitted)
        assert np.all(np.abs(hits[:4] / admitted - 0.25) <= 4 * sd)

    def test_victim_class_always_among_argmax_counts(self):
        # randomized sweep over buffer compositions
        rng = np.random.default_rng(77)
        for _ in range(200):
            n = int(rng.integers(3, 12))
            labels = rng.integers(0, 4, size=n).tolist()
            buf = fill_buffer(BALANCED_RESERVOIR, labels=labels,
                              seed=int(rng.integers(1 << 30)))
            counts = buf.class_counts()
            max_count = max(counts.values())
            before = buf.labels.copy()
            slot = offer(buf, 9, np.random.default_rng(int(rng.integers(1 << 30))))
            assert_buffer_invariants(buf)
            if slot >= 0:
                assert counts[before[slot]] == max_count


class TestLarsScores:
    def test_hand_computed_four_item_example(self):
        buf = fill_buffer(LOSS_AWARE_RESERVOIR, labels=[0, 0, 0, 1],
                          losses=[1.0, 3.0, 1.0, 1.0])
        sv = lars_scores(buf)
        np.testing.assert_array_equal(sv.s_balance, [3, 3, 3, 1])
        np.testing.assert_allclose(sv.s_loss, [-1, -3, -1, -1])
        assert sv.alpha == pytest.approx(10.0 / 6.0, abs=1e-15)
        np.testing.assert_allclose(sv.s, [4 / 3, -2, 4 / 3, -2 / 3], atol=1e-12)
        np.testing.assert_allclose(sv.probs, [5 / 12, 0, 5 / 12, 1 / 6], atol=1e-15)

    def test_uniform_when_fully_symmetric(self):
        buf = fill_buffer(LOSS_AWARE_RESERVOIR, labels=[0, 1, 2], losses=[2.0, 2.0, 2.0])
        np.testing.assert_allclose(lars_scores(buf).probs, np.full(3, 1 / 3), atol=1e-12)

    def test_low_loss_item_is_certain_victim(self):
        buf = fill_buffer(LOSS_AWARE_RESERVOIR, labels=[0, 1], losses=[0.0, 10.0])
        np.testing.assert_allclose(lars_scores(buf).probs, [1.0, 0.0], atol=1e-15)

    def test_all_zero_losses_fall_back_to_balance_only(self):
        buf = fill_buffer(LOSS_AWARE_RESERVOIR, labels=[0, 0, 1], losses=[0.0, 0.0, 0.0])
        sv = lars_scores(buf)
        assert sv.alpha == 0.0
        np.testing.assert_allclose(sv.probs, [0.5, 0.5, 0.0], atol=1e-12)

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError):
            lars_scores(ReplayBuffer(4, LOSS_AWARE_RESERVOIR, class_count=2))

    def test_probs_are_a_distribution_on_random_buffers(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            buf = fill_buffer(LOSS_AWARE_RESERVOIR,
                              labels=rng.integers(0, 4, size=n).tolist(),
                              losses=rng.uniform(0, 5, size=n).tolist(),
                              seed=int(rng.integers(1 << 30)))
            sv = lars_scores(buf)
            assert np.all(sv.probs >= 0)
            assert abs(sv.probs.sum() - 1.0) <= 1e-12

    def test_alpha_equalizes_l1_masses(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            losses = rng.uniform(0.01, 5, size=n).tolist()
            buf = fill_buffer(LOSS_AWARE_RESERVOIR,
                              labels=rng.integers(0, 3, size=n).tolist(), losses=losses)
            sv = lars_scores(buf)
            assert abs(np.abs(sv.s_loss * sv.alpha).sum()
                       - np.abs(sv.s_balance).sum()) <= 1e-9


class TestLarsUpdate:
    def test_zero_probability_victim_never_chosen(self):
        # From the hand example, slot 1 has eviction probability 0.
        hits = np.zeros(4)
        for seed in range(10_000):
            buf = fill_buffer(LOSS_AWARE_RESERVOIR, labels=[0, 0, 0, 1],
                              losses=[1.0, 3.0, 1.0, 1.0])
            slot = offer(buf, 2, np.random.default_rng(seed), loss=0.5)
            assert_buffer_invariants(buf)
            if slot >= 0:
                hits[slot] += 1
        assert hits[1] == 0
        assert hits[0] > 0 and hits[2] > 0 and hits[3] > 0

    def test_uniform_fallback_victim_frequencies(self):
        # Fully symmetric buffer: every slot should be evicted equally often.
        hits = np.zeros(4)
        admitted = 0
        for seed in range(8000):
            buf = fill_buffer(LOSS_AWARE_RESERVOIR, labels=[0, 1, 2, 3],
                              losses=[1.0, 1.0, 1.0, 1.0])
            slot = offer(buf, 0, np.random.default_rng(seed), loss=0.2)
            if slot >= 0:
                hits[slot] += 1
                admitted += 1
        freq = hits / admitted
        sd = np.sqrt(0.25 * 0.75 / admitted)
        assert np.all(np.abs(freq - 0.25) <= 4 * sd)

    def test_victim_frequencies_follow_the_score_distribution(self):
        labels, losses = [0, 0, 1, 2], [0.3, 2.0, 1.0, 0.1]
        reference = lars_scores(fill_buffer(LOSS_AWARE_RESERVOIR,
                                            labels=labels, losses=losses)).probs
        hits = np.zeros(4)
        admitted = 0
        for seed in range(12_000):
            buf = fill_buffer(LOSS_AWARE_RESERVOIR, labels=labels, losses=losses)
            slot = offer(buf, 3, np.random.default_rng(seed), loss=0.5)
            assert_buffer_invariants(buf)
            if slot >= 0:
                hits[slot] += 1
                admitted += 1
        freq = hits / admitted
        sd = np.sqrt(reference * (1 - reference) / admitted)
        assert np.all(np.abs(freq - reference) <= 4 * sd + 1e-9)


class TestVictimFromUniform:
    """BRS and LARS map the admitted item's uniform in [0, 1) to a victim by
    inverse CDF; its two ends land on the first and last eligible slots."""

    @pytest.mark.parametrize("strategy, labels, losses, first, last", [
        # classes 0 and 1 tie at two items; slot 0 holds class 2
        (BALANCED_RESERVOIR, [2, 0, 1, 1, 0], [0.0] * 5, 1, 4),
        # slots 0 and 4 score lowest and have eviction probability 0
        (LOSS_AWARE_RESERVOIR, [0, 0, 0, 1, 0], [3.0, 1.0, 1.0, 1.0, 3.0], 1, 3),
    ])
    def test_ends_of_the_unit_interval(self, strategy, labels, losses, first, last):
        buf = fill_buffer(strategy, labels=labels, losses=losses)
        if strategy == LOSS_AWARE_RESERVOIR:
            assert np.flatnonzero(lars_scores(buf).probs).tolist() == [1, 2, 3]
        counts = np.bincount(buf.labels, minlength=buf.class_count)
        sumsq = int(counts @ counts)
        assert buf._victim_slot(0.0, counts, sumsq) == first
        assert buf._victim_slot(float(np.nextafter(1.0, 0.0)), counts, sumsq) == last


class TestRefreshLossScores:
    def test_empty_indices_is_identity(self):
        buf = fill_buffer(LOSS_AWARE_RESERVOIR, labels=[0, 1], losses=[1.0, 2.0])
        buf.refresh_loss_scores([], [])
        assert buf.loss.tolist() == [1.0, 2.0]

    def test_single_slot_assignment_is_exact(self):
        buf = fill_buffer(LOSS_AWARE_RESERVOIR, labels=[0], losses=[1.0], capacity=2)
        buf.refresh_loss_scores([0], [0.7])
        assert buf.loss[0] == 0.7

    def test_duplicate_slot_keeps_last_loss(self):
        # draws with replacement repeat slots; the last refresh must win
        buf = fill_buffer(LOSS_AWARE_RESERVOIR, labels=[0, 1], losses=[5.0, 5.0])
        buf.refresh_loss_scores([0, 0], [1.0, 2.0])
        assert buf.loss.tolist() == [2.0, 5.0]

    def test_invalid_input_writes_nothing(self):
        buf = fill_buffer(LOSS_AWARE_RESERVOIR, labels=[0, 1], losses=[5.0, 5.0], capacity=3)
        with pytest.raises(IndexError):
            buf.refresh_loss_scores([0, 2], [1.0, 1.0])
        with pytest.raises(ValueError):
            buf.refresh_loss_scores([0, 1], [1.0, -1.0])
        with pytest.raises(ValueError):
            buf.refresh_loss_scores([0, 1], [1.0, float("nan")])
        with pytest.raises(ValueError):
            buf.refresh_loss_scores([0, 1], [1.0, float("inf")])
        with pytest.raises(IndexError):
            buf.refresh_loss_scores([0.0, 1.7], [1.0, 1.0])
        assert buf.loss[:2].tolist() == [5.0, 5.0]

    def test_scores_reflect_refreshed_losses(self):
        buf = fill_buffer(LOSS_AWARE_RESERVOIR, labels=[0, 0, 0, 1],
                          losses=[9.0, 9.0, 9.0, 9.0])
        buf.refresh_loss_scores([0, 1, 2, 3], [1.0, 3.0, 1.0, 1.0])
        np.testing.assert_allclose(lars_scores(buf).probs, [5 / 12, 0, 5 / 12, 1 / 6],
                                   atol=1e-15)

    @pytest.mark.parametrize("indices, named", [
        ([0, -1], -1),    # negative
        ([4, 1], 4),      # equal to the capacity
        ([1, 3], 3),      # an empty slot of the part-filled buffer
        ([2, 5], 2),      # the first offending index is the one named
        ([-5, 3], -5),
    ])
    def test_out_of_range_index_rejected(self, indices, named):
        buf = fill_buffer(LOSS_AWARE_RESERVOIR, labels=[0, 1], losses=[5.0, 5.0], capacity=4)
        with pytest.raises(IndexError, match=f"^slot {named} is not a filled buffer slot$"):
            buf.refresh_loss_scores(indices, [0.5, 0.5])
        assert buf.loss.tolist() == [5.0, 5.0, 0.0, 0.0]

    def test_negative_loss_rejected(self):
        buf = fill_buffer(LOSS_AWARE_RESERVOIR, labels=[0], capacity=4)
        with pytest.raises(ValueError):
            buf.refresh_loss_scores([0], [-0.1])


class TestDrawReplayBatch:
    def test_single_slot_is_repeated(self):
        buf = fill_buffer(RESERVOIR, labels=[7], capacity=5)
        ids, _, labels = buf.draw_replay_batch(4, np.random.default_rng(0))
        assert ids.tolist() == [0, 0, 0, 0]
        assert all(label == 7 for label in labels)

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError):
            ReplayBuffer(5, RESERVOIR, class_count=2).draw_replay_batch(
                2, np.random.default_rng(0))

    def test_draw_is_uniform_over_slots(self):
        buf = fill_buffer(RESERVOIR, labels=list(range(20)), capacity=20)
        rng = np.random.default_rng(3)
        ids, _, _ = buf.draw_replay_batch(40_000, rng)
        freq = np.bincount(ids, minlength=20) / 40_000
        sd = np.sqrt(0.05 * 0.95 / 40_000)
        assert np.all(np.abs(freq - 0.05) <= 4 * sd)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_draw_from_a_part_filled_buffer_skips_empty_slots(self, strategy):
        buf = fill_buffer(strategy, labels=[3, 1], capacity=10, class_count=5)
        # two of the ten slots are filled, and the draw stays in them
        ids, _, labels = buf.draw_replay_batch(40, np.random.default_rng(0))
        assert set(ids.tolist()) == {0, 1}
        assert set(labels.tolist()) == {1, 3}

    def test_default_pairing_batch_32_from_capacity_500(self):
        buf = fill_buffer(RESERVOIR, labels=[i % 10 for i in range(500)], capacity=500)
        ids, feats, labels = buf.draw_replay_batch(32, np.random.default_rng(4))
        assert len(ids) == len(feats) == len(labels) == 32
        assert all(0 <= i < 500 for i in ids)


class TestOmissionProbability:
    def test_two_classes_capacity_two(self):
        assert omission_probability(2, 2) == pytest.approx(0.25, abs=1e-15)

    def test_ten_classes_capacity_ten(self):
        assert omission_probability(10, 10) == pytest.approx(0.3487, abs=5e-5)
        assert round(omission_probability(10, 10), 3) == 0.349

    def test_single_class_never_omitted(self):
        for capacity in (0, 1, 17):
            assert omission_probability(1, capacity) == 0.0

    def test_zero_classes_rejected(self):
        with pytest.raises(ValueError):
            omission_probability(0, 5)


class TestBufferPlumbing:
    def test_as_arrays_stacks_features_and_labels(self):
        buf = ReplayBuffer(3, RESERVOIR, class_count=6)
        rng = np.random.default_rng(0)
        offer(buf, 2, rng, features=np.array([0.1, 0.2]))
        offer(buf, 5, rng, features=np.array([0.3, 0.4]))
        feats, labels = buf.as_arrays()
        np.testing.assert_array_equal(feats, [[0.1, 0.2], [0.3, 0.4]])
        np.testing.assert_array_equal(labels, [2, 5])

    def test_class_counts_track_evictions(self):
        buf = fill_buffer(BALANCED_RESERVOIR, labels=[0, 0, 1], capacity=3, seed=5)
        rng = np.random.default_rng(5)
        for _ in range(30):
            offer(buf, 2, rng)
        counts = buf.class_counts()
        assert sum(counts.values()) == 3
        assert all(v > 0 for v in counts.values())

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ReplayBuffer(-1, RESERVOIR, class_count=2)
        for unknown in ("herding", "ring"):
            with pytest.raises(ValueError, match="unknown strategy"):
                ReplayBuffer(4, unknown, class_count=2)
        with pytest.raises(ValueError):
            ReplayBuffer(4, RESERVOIR, class_count=0)
