"""Tests for input transforms and independent re-augmentation of replay."""

import numpy as np
import pytest

from replay_lab.augmentation import AugPolicy, augment, replay_with_iba
from replay_lab.sampling import ReplayBuffer


class TestAugment:
    def test_disabled_policy_is_bit_identity(self):
        policy = AugPolicy(image_dims=(3, 3, 1), max_shift=1, enabled=False)
        feats = np.random.default_rng(0).uniform(size=9)
        out = augment(policy, feats, np.random.default_rng(1))
        np.testing.assert_array_equal(out, feats)

    def test_shift_down_by_one_row_moves_lit_pixel(self):
        # find a seed whose first two integer draws are dy=+1, dx=0
        policy = AugPolicy(image_dims=(3, 3, 1), max_shift=1, hflip_prob=0.0)
        seed = next(s for s in range(10_000)
                    if (lambda r: (int(r.integers(-1, 2)), int(r.integers(-1, 2))))
                    (np.random.default_rng(s)) == (1, 0))
        img = np.zeros((3, 3, 1))
        img[1, 1, 0] = 1.0
        out = augment(policy, img.reshape(-1), np.random.default_rng(seed)).reshape(3, 3, 1)
        expected = np.zeros((3, 3, 1))
        expected[2, 1, 0] = 1.0
        np.testing.assert_array_equal(out, expected)

    def test_certain_hflip_reverses_columns_and_is_an_involution(self):
        policy = AugPolicy(image_dims=(2, 4, 1), max_shift=0, hflip_prob=1.0)
        feats = np.arange(8, dtype=float).reshape(2, 4, 1) / 10.0
        once = augment(policy, feats.reshape(-1), np.random.default_rng(0))
        np.testing.assert_array_equal(once.reshape(2, 4, 1), feats[:, ::-1, :])
        twice = augment(policy, once, np.random.default_rng(1))
        np.testing.assert_array_equal(twice, feats.reshape(-1))

    def test_padding_introduces_only_zeros_and_preserves_range(self):
        policy = AugPolicy(image_dims=(5, 5, 1), max_shift=2, hflip_prob=0.5)
        feats = np.ones(25)
        rng = np.random.default_rng(7)
        for _ in range(50):
            out = augment(policy, feats, rng)
            assert out.shape == (25,)
            assert set(np.unique(out)) <= {0.0, 1.0}

    def test_input_never_mutated(self):
        policy = AugPolicy(image_dims=(4, 4, 1), max_shift=2, hflip_prob=1.0)
        feats = np.random.default_rng(3).uniform(size=16)
        copy = feats.copy()
        augment(policy, feats, np.random.default_rng(4))
        np.testing.assert_array_equal(feats, copy)

    def test_deterministic_given_seed(self):
        policy = AugPolicy(image_dims=(6, 6, 1), max_shift=2, hflip_prob=0.5)
        feats = np.random.default_rng(5).uniform(size=36)
        a = augment(policy, feats, np.random.default_rng(42))
        b = augment(policy, feats, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_dimension_mismatch_rejected(self):
        policy = AugPolicy(image_dims=(3, 3, 1))
        with pytest.raises(ValueError):
            augment(policy, np.zeros(8), np.random.default_rng(0))

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            AugPolicy(image_dims=(3, 3, 1), max_shift=3)
        with pytest.raises(ValueError):
            AugPolicy(image_dims=(3, 3, 1), hflip_prob=1.5)


def filled_buffer(n_slots, dim, seed=0):
    buf = ReplayBuffer(n_slots, "reservoir")
    rng = np.random.default_rng(seed)
    for i in range(n_slots):
        buf.update(rng.uniform(size=dim), i % 3, 0.0, rng)
    return buf


class TestReplayWithIba:
    def test_disabled_policy_equals_raw_draw(self):
        buf = filled_buffer(6, 16)
        policy = AugPolicy(image_dims=(4, 4, 1), max_shift=2, enabled=False)
        ids, feats, labels = replay_with_iba(buf, 5, policy, np.random.default_rng(9))
        raw_ids, raw_feats, raw_labels = buf.draw_replay_batch(5, np.random.default_rng(9))
        np.testing.assert_array_equal(ids, raw_ids)
        np.testing.assert_array_equal(feats, raw_feats)
        np.testing.assert_array_equal(labels, raw_labels)

    def test_two_draws_of_same_slot_usually_differ(self):
        buf = filled_buffer(1, 64, seed=1)
        policy = AugPolicy(image_dims=(8, 8, 1), max_shift=2, hflip_prob=0.0)
        rng = np.random.default_rng(10)
        differ = 0
        trials = 1000
        for _ in range(trials):
            _, feats, _ = replay_with_iba(buf, 2, policy, rng)
            differ += not np.array_equal(feats[0], feats[1])
        assert differ / trials > 0.9

    def test_buffer_contents_survive_any_number_of_draws(self):
        buf = filled_buffer(4, 36, seed=2)
        originals = buf.features.copy()
        policy = AugPolicy(image_dims=(6, 6, 1), max_shift=2, hflip_prob=0.5)
        rng = np.random.default_rng(11)
        for _ in range(200):
            replay_with_iba(buf, 8, policy, rng)
        for row, original in zip(buf.features, originals):
            np.testing.assert_array_equal(row, original)

    def test_separate_augmentation_stream_keeps_draws_aligned(self):
        # same draw rng, different aug rng: slot ids must match exactly
        buf = filled_buffer(5, 16, seed=3)
        policy = AugPolicy(image_dims=(4, 4, 1), max_shift=1)
        ids_a, _, _ = replay_with_iba(buf, 6, policy, np.random.default_rng(12),
                                      np.random.default_rng(100))
        ids_b, _, _ = replay_with_iba(buf, 6, policy, np.random.default_rng(12),
                                      np.random.default_rng(200))
        np.testing.assert_array_equal(ids_a, ids_b)
