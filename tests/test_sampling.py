"""Tests for the replay buffer strategies and their statistical guarantees."""

import numpy as np
import pytest

from replay_lab.sampling import (BALANCED_RESERVOIR, LOSS_AWARE_RESERVOIR,
                                 RESERVOIR, RING, STRATEGIES, ReplayBuffer,
                                 ScoreVectors, lars_scores, omission_probability)

NO_FEATURES = np.empty(0)
# class ids in these tests lie below this
CLASS_COUNT = 20


def offer(buf, label, rng, loss=0.0, features=NO_FEATURES):
    buf.update(features, label, loss, rng)


def assert_buffer_invariants(buf):
    """What every strategy keeps true after any sequence of offers."""
    filled = buf.filled_ids()
    assert buf.n_filled <= buf.capacity
    assert np.all(buf.labels >= -1)
    assert np.all(buf.labels[filled] < buf.class_count)
    if buf.strategy == RING:
        # each class owns segment [c * seg, (c + 1) * seg)
        segment = buf.capacity // buf.class_count
        assert np.all(buf.labels[filled] == filled // max(segment, 1))
        assert segment > 0 or filled.size == 0
    else:
        np.testing.assert_array_equal(filled, np.arange(min(buf.seen_count, buf.capacity)))


def fill_buffer(strategy, labels, losses=None, capacity=None, seed=0, class_count=CLASS_COUNT):
    capacity = capacity if capacity is not None else len(labels)
    buf = ReplayBuffer(capacity, strategy, class_count=class_count)
    rng = np.random.default_rng(seed)
    losses = losses if losses is not None else [0.0] * len(labels)
    for lab, loss in zip(labels, losses):
        offer(buf, lab, rng, loss)
    return buf


class TestFillPhase:
    def test_first_item_lands_in_slot_zero(self):
        buf = ReplayBuffer(12, RESERVOIR, class_count=4)
        offer(buf, 3, np.random.default_rng(0))
        assert buf.seen_count == 1
        assert buf.n_filled == 1
        assert buf.labels[0] == 3
        assert buf.last_insert_slot == 0

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

    @pytest.mark.parametrize("strategy", [RESERVOIR, RING])
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

    def test_capacity_zero_is_a_no_op_store(self):
        buf = fill_buffer(RESERVOIR, labels=[0, 1, 2], capacity=0)
        assert buf.seen_count == 3
        assert buf.n_filled == 0
        assert buf.last_insert_slot is None


class TestReservoir:
    def test_inclusion_frequency_matches_guarantee(self):
        # Every stream item should sit in the final buffer with probability
        # capacity / N; checked within 3 binomial standard deviations.
        n_items, capacity, runs = 200, 10, 800
        hits = np.zeros(n_items)
        for run in range(runs):
            rng = np.random.default_rng(np.random.SeedSequence([42, run]))
            buf = ReplayBuffer(capacity, RESERVOIR, class_count=1)
            for i in range(n_items):
                offer(buf, 0, rng, loss=float(i))
            assert_buffer_invariants(buf)
            for loss in buf.loss:
                hits[int(loss)] += 1
        freq = hits / runs
        p = capacity / n_items
        sd = np.sqrt(p * (1 - p) / runs)
        assert np.mean(np.abs(freq - p) <= 3 * sd) >= 0.99

    def test_admission_probability_shared_by_all_reservoir_strategies(self):
        # Admission of the incoming item at step N+1 has probability
        # capacity/(N+1) regardless of the eviction rule.
        capacity, n_items, runs = 10, 60, 2000
        for strategy in (RESERVOIR, BALANCED_RESERVOIR, LOSS_AWARE_RESERVOIR):
            admitted = np.zeros(n_items)
            for run in range(runs):
                rng = np.random.default_rng(np.random.SeedSequence([7, run]))
                buf = ReplayBuffer(capacity, strategy, class_count=4)
                for i in range(n_items):
                    offer(buf, i % 4, rng, loss=0.1)
                    admitted[i] += buf.last_insert_slot is not None
                assert_buffer_invariants(buf)
            freq = admitted / runs
            p = np.minimum(1.0, capacity / (np.arange(n_items) + 1.0))
            sd = np.sqrt(p * (1 - p) / runs)
            assert np.all(np.abs(freq - p) <= 3 * sd + 1e-12), strategy


class TestBalancedReservoir:
    def test_victim_comes_from_unique_majority_class(self):
        # Buffer [A, A, B]: class A is the unique argmax, so any admitted
        # replacement must evict slot 0 or 1.
        for seed in range(200):
            buf = fill_buffer(BALANCED_RESERVOIR, labels=[0, 0, 1], capacity=3, seed=seed)
            rng = np.random.default_rng(seed)
            before = (buf.labels[2], buf.loss[2], buf.features[2].copy())
            offer(buf, 2, rng)
            if buf.last_insert_slot is not None:
                assert buf.last_insert_slot in (0, 1)
                assert buf.labels[2] == before[0] and buf.loss[2] == before[1]
                np.testing.assert_array_equal(buf.features[2], before[2])

    def test_never_evicts_strictly_underrepresented_class(self):
        for seed in range(50):
            buf = fill_buffer(BALANCED_RESERVOIR, labels=[0, 0, 0, 1, 2, 2], capacity=6, seed=seed)
            rng = np.random.default_rng(1000 + seed)
            offer(buf, 3, rng)
            assert_buffer_invariants(buf)
            if buf.last_insert_slot is not None:
                # class 1 (count 1) and class 2 (count 2) are both below the
                # max count 3, so only class-0 slots are eligible
                assert buf.last_insert_slot in (0, 1, 2)

    def test_incoming_item_class_does_not_count(self):
        # Buffer [A, B] with incoming B: if the incoming label were counted,
        # B would be the unique argmax and slot 1 would always lose. With it
        # excluded the counts tie, so slot 0 must be evicted sometimes.
        victims = set()
        for seed in range(300):
            buf = fill_buffer(BALANCED_RESERVOIR, labels=[0, 1], capacity=2, seed=seed)
            offer(buf, 1, np.random.default_rng(seed))
            if buf.last_insert_slot is not None:
                victims.add(buf.last_insert_slot)
        assert victims == {0, 1}

    def test_tied_classes_both_evictable(self):
        overwritten = set()
        for seed in range(300):
            buf = fill_buffer(BALANCED_RESERVOIR, labels=[0, 0, 1, 1], capacity=4, seed=seed)
            offer(buf, 2, np.random.default_rng(seed))
            if buf.last_insert_slot is not None:
                overwritten.add(buf.last_insert_slot)
        assert overwritten == {0, 1, 2, 3}

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
            offer(buf, 9, np.random.default_rng(int(rng.integers(1 << 30))))
            assert_buffer_invariants(buf)
            slot = buf.last_insert_slot
            if slot is not None:
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
            offer(buf, 2, np.random.default_rng(seed), loss=0.5)
            assert_buffer_invariants(buf)
            if buf.last_insert_slot is not None:
                hits[buf.last_insert_slot] += 1
        assert hits[1] == 0
        assert hits[0] > 0 and hits[2] > 0 and hits[3] > 0

    def test_uniform_fallback_victim_frequencies(self):
        # Fully symmetric buffer: every slot should be evicted equally often.
        hits = np.zeros(4)
        admitted = 0
        for seed in range(8000):
            buf = fill_buffer(LOSS_AWARE_RESERVOIR, labels=[0, 1, 2, 3],
                              losses=[1.0, 1.0, 1.0, 1.0])
            offer(buf, 0, np.random.default_rng(seed), loss=0.2)
            if buf.last_insert_slot is not None:
                hits[buf.last_insert_slot] += 1
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
            offer(buf, 3, np.random.default_rng(seed), loss=0.5)
            assert_buffer_invariants(buf)
            if buf.last_insert_slot is not None:
                hits[buf.last_insert_slot] += 1
                admitted += 1
        freq = hits / admitted
        sd = np.sqrt(reference * (1 - reference) / admitted)
        assert np.all(np.abs(freq - reference) <= 4 * sd + 1e-9)


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

    def test_out_of_range_index_rejected(self):
        buf = fill_buffer(LOSS_AWARE_RESERVOIR, labels=[0], capacity=4)
        with pytest.raises(IndexError):
            buf.refresh_loss_scores([3], [0.5])

    def test_negative_loss_rejected(self):
        buf = fill_buffer(LOSS_AWARE_RESERVOIR, labels=[0], capacity=4)
        with pytest.raises(ValueError):
            buf.refresh_loss_scores([0], [-0.1])


class TestRing:
    def test_segment_keeps_newest_two(self):
        buf = ReplayBuffer(10, RING, class_count=5)
        rng = np.random.default_rng(0)
        for loss in (1.0, 2.0, 3.0):
            offer(buf, 0, rng, loss=loss)
        stored = sorted(buf.loss[:2].tolist())
        assert stored == [2.0, 3.0]
        assert np.all(buf.labels[2:] == -1)
        assert_buffer_invariants(buf)

    def test_one_item_per_class_fills_each_segment(self):
        buf = ReplayBuffer(10, RING, class_count=5)
        rng = np.random.default_rng(0)
        for c in range(5):
            offer(buf, c, rng)
        assert buf.n_filled == 5
        for c in range(5):
            assert buf.labels[2 * c] == c
        assert_buffer_invariants(buf)

    def test_underexploitation_after_first_task(self):
        # 2 classes of a 10-class protocol seen: at least 3/5 of a ring
        # buffer stays empty.
        buf = ReplayBuffer(100, RING, class_count=10)
        rng = np.random.default_rng(0)
        for i in range(400):
            offer(buf, i % 2, rng)
        assert buf.n_filled <= 100 * 2 / 5
        assert (100 - buf.n_filled) / 100 >= 3 / 5
        assert_buffer_invariants(buf)

    def test_label_out_of_range_rejected(self):
        buf = ReplayBuffer(10, RING, class_count=5)
        with pytest.raises(ValueError):
            offer(buf, 5, np.random.default_rng(0))

    def test_requires_class_count(self):
        with pytest.raises(ValueError):
            ReplayBuffer(10, RING, class_count=0)

    def test_mixed_stream_keeps_each_segment_to_its_class(self):
        # 13 slots over 4 classes: segments of 3, slot 12 never used
        buf = ReplayBuffer(13, RING, class_count=4)
        rng = np.random.default_rng(6)
        for label in rng.integers(0, 4, size=200):
            offer(buf, int(label), rng)
        assert buf.labels[12] == -1
        assert_buffer_invariants(buf)


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

    def test_default_pairing_batch_32_from_capacity_500(self):
        buf = fill_buffer(RESERVOIR, labels=[i % 10 for i in range(500)], capacity=500)
        ids, feats, labels = buf.draw_replay_batch(32, np.random.default_rng(4))
        assert len(ids) == len(feats) == len(labels) == 32
        assert all(0 <= i < 500 for i in ids)

    def test_draw_from_ring_skips_empty_slots(self):
        buf = ReplayBuffer(10, RING, class_count=5)
        rng = np.random.default_rng(0)
        offer(buf, 3, rng)
        ids, _, labels = buf.draw_replay_batch(8, rng)
        assert set(ids) == {6}
        assert all(label == 3 for label in labels)


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

    def test_audit_lists_slot_label_loss(self):
        buf = fill_buffer(LOSS_AWARE_RESERVOIR, labels=[4, 2], losses=[0.5, 1.5], capacity=4)
        assert buf.audit() == [(0, 4, 0.5), (1, 2, 1.5)]

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
        with pytest.raises(ValueError):
            ReplayBuffer(4, "herding", class_count=2)
        with pytest.raises(ValueError):
            ReplayBuffer(4, RESERVOIR, class_count=0)
