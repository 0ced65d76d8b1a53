"""Tests for input transforms and independent re-augmentation of replay."""

import numpy as np
import pytest

from replay_lab.augmentation import AugPolicy, augment, replay_with_iba
from replay_lab.sampling import ReplayBuffer


def shift_flip_row(policy, row, dy, dx, flip):
    """Reference transform of one flattened image: shift by (dy, dx) with
    zero padding, then mirror the columns if ``flip``. The batched
    ``augment`` must agree with it row by row."""
    h, w, c = policy.image_dims
    img = row.reshape(h, w, c)
    out = np.zeros_like(img)
    out[max(dy, 0):h + min(dy, 0), max(dx, 0):w + min(dx, 0)] = \
        img[max(-dy, 0):h + min(-dy, 0), max(-dx, 0):w + min(-dx, 0)]
    if flip:
        out = out[:, ::-1, :]
    return out.reshape(-1)


class TestAugment:
    def test_zero_shift_no_flip_is_bit_identity(self):
        policy = AugPolicy(image_dims=(3, 3, 1), max_shift=0, hflip_prob=0.0)
        feats = np.random.default_rng(0).uniform(size=(4, 9))
        out = augment(policy, feats, np.random.default_rng(1))
        np.testing.assert_array_equal(out, feats)

    def test_shift_down_by_one_row_moves_lit_pixel(self):
        # find a seed whose batch draw for a single row is dy=+1, dx=0
        policy = AugPolicy(image_dims=(3, 3, 1), max_shift=1, hflip_prob=0.0)
        seed = next(s for s in range(10_000)
                    if np.random.default_rng(s).integers(-1, 2, size=(2, 1))[:, 0].tolist()
                    == [1, 0])
        img = np.zeros((3, 3, 1))
        img[1, 1, 0] = 1.0
        out = augment(policy, img.reshape(1, -1), np.random.default_rng(seed)).reshape(3, 3, 1)
        expected = np.zeros((3, 3, 1))
        expected[2, 1, 0] = 1.0
        np.testing.assert_array_equal(out, expected)

    def test_certain_hflip_reverses_columns_and_is_an_involution(self):
        policy = AugPolicy(image_dims=(2, 4, 1), max_shift=0, hflip_prob=1.0)
        feats = np.arange(16, dtype=float).reshape(2, 2, 4, 1) / 10.0
        once = augment(policy, feats.reshape(2, -1), np.random.default_rng(0))
        np.testing.assert_array_equal(once.reshape(2, 2, 4, 1), feats[:, :, ::-1, :])
        twice = augment(policy, once, np.random.default_rng(1))
        np.testing.assert_array_equal(twice, feats.reshape(2, -1))

    def test_padding_introduces_only_zeros_and_preserves_range(self):
        policy = AugPolicy(image_dims=(5, 5, 1), max_shift=2, hflip_prob=0.5)
        feats = np.ones((50, 25))
        out = augment(policy, feats, np.random.default_rng(7))
        assert out.shape == (50, 25)
        assert set(np.unique(out)) <= {0.0, 1.0}

    def test_input_never_mutated(self):
        policy = AugPolicy(image_dims=(4, 4, 1), max_shift=2, hflip_prob=1.0)
        feats = np.random.default_rng(3).uniform(size=(6, 16))
        copy = feats.copy()
        augment(policy, feats, np.random.default_rng(4))
        np.testing.assert_array_equal(feats, copy)

    def test_deterministic_given_seed(self):
        policy = AugPolicy(image_dims=(6, 6, 1), max_shift=2, hflip_prob=0.5)
        feats = np.random.default_rng(5).uniform(size=(8, 36))
        a = augment(policy, feats, np.random.default_rng(42))
        b = augment(policy, feats, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_dimension_mismatch_rejected(self):
        # a batch of the wrong width, and a single row of the right width
        policy = AugPolicy(image_dims=(3, 3, 1))
        for rows in (np.zeros((2, 8)), np.zeros(9)):
            with pytest.raises(ValueError):
                augment(policy, rows, np.random.default_rng(0))

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            AugPolicy(image_dims=(3, 3, 1), max_shift=3)
        with pytest.raises(ValueError):
            AugPolicy(image_dims=(3, 3, 1), hflip_prob=1.5)


@pytest.mark.parametrize("dtype", [np.float64, np.uint8])
@pytest.mark.parametrize("hflip_prob", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("image_dims, max_shift",
                         [(dims, s) for dims in [(3, 3, 1), (5, 7, 1), (4, 6, 3)]
                          for s in range(min(dims[:2]))])
def test_batch_matches_per_row_reference(image_dims, max_shift, hflip_prob, dtype):
    # documented draw order: every row's dy, then every row's dx, then every flip
    policy = AugPolicy(image_dims=image_dims, max_shift=max_shift, hflip_prob=hflip_prob)
    n = 20
    rows = np.random.default_rng(0).integers(1, 256, size=(n, np.prod(image_dims)))
    rows = rows.astype(dtype) if dtype == np.uint8 else rows / 255.0
    out = augment(policy, rows, np.random.default_rng(1))

    draws = np.random.default_rng(1)
    dys, dxs = draws.integers(-max_shift, max_shift + 1, size=(2, n))
    flips = draws.random(n) < hflip_prob
    expected = np.stack([shift_flip_row(policy, row, int(dy), int(dx), flip)
                         for row, dy, dx, flip in zip(rows, dys, dxs, flips)])
    assert out.dtype == rows.dtype
    np.testing.assert_array_equal(out, expected)


def test_zero_shift_makes_exactly_the_per_row_draws():
    # a per-row transform draws dy, dx and the flip one row at a time; with
    # max_shift = 0 the integer draws consume nothing, so the batch call must
    # give the same output and leave the generator in the same state
    policy = AugPolicy(image_dims=(4, 6, 3), max_shift=0, hflip_prob=0.5)
    rows = np.random.default_rng(2).uniform(size=(16, 72))
    batch_rng, row_rng = np.random.default_rng(3), np.random.default_rng(3)
    out = augment(policy, rows, batch_rng)
    expected = []
    for row in rows:
        dy, dx = int(row_rng.integers(0, 1)), int(row_rng.integers(0, 1))
        expected.append(shift_flip_row(policy, row, dy, dx, row_rng.random() < 0.5))
    np.testing.assert_array_equal(out, np.stack(expected))
    assert batch_rng.bit_generator.state == row_rng.bit_generator.state


def filled_buffer(n_slots, dim, seed=0):
    buf = ReplayBuffer(n_slots, "reservoir", class_count=3)
    rng = np.random.default_rng(seed)
    buf.update(rng.uniform(size=(n_slots, dim)), np.arange(n_slots) % 3, np.zeros(n_slots), rng)
    return buf


class TestReplayWithIba:
    def test_zero_shift_no_flip_equals_raw_draw(self):
        buf = filled_buffer(6, 16)
        policy = AugPolicy(image_dims=(4, 4, 1), max_shift=0, hflip_prob=0.0)
        ids, feats, labels = replay_with_iba(buf, 5, policy, np.random.default_rng(9),
                                             np.random.default_rng(10))
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
            _, feats, _ = replay_with_iba(buf, 2, policy, rng, rng)
            differ += not np.array_equal(feats[0], feats[1])
        assert differ / trials > 0.9

    def test_buffer_contents_survive_any_number_of_draws(self):
        buf = filled_buffer(4, 36, seed=2)
        originals = buf.features.copy()
        policy = AugPolicy(image_dims=(6, 6, 1), max_shift=2, hflip_prob=0.5)
        rng = np.random.default_rng(11)
        for _ in range(200):
            replay_with_iba(buf, 8, policy, rng, rng)
        for row, original in zip(buf.features, originals):
            np.testing.assert_array_equal(row, original)

    def test_uint8_buffer_draws_stay_uint8(self):
        buf = ReplayBuffer(4, "reservoir", class_count=3)
        rng = np.random.default_rng(4)
        pixels = rng.integers(0, 256, size=(4, 36), dtype=np.uint8)
        buf.update(pixels, np.arange(4) % 3, np.zeros(4), rng)
        policy = AugPolicy(image_dims=(6, 6, 1), max_shift=2, hflip_prob=0.5)
        _, feats, _ = replay_with_iba(buf, 8, policy, rng, rng)
        assert feats.dtype == np.uint8
        assert set(np.unique(feats)) <= set(np.unique(pixels)) | {0}

    def test_separate_augmentation_stream_keeps_draws_aligned(self):
        # same draw rng, different aug rng: slot ids must match exactly
        buf = filled_buffer(5, 16, seed=3)
        policy = AugPolicy(image_dims=(4, 4, 1), max_shift=1)
        ids_a, _, _ = replay_with_iba(buf, 6, policy, np.random.default_rng(12),
                                      np.random.default_rng(100))
        ids_b, _, _ = replay_with_iba(buf, 6, policy, np.random.default_rng(12),
                                      np.random.default_rng(200))
        np.testing.assert_array_equal(ids_a, ids_b)
