"""Tests for IDX parsing, the synthetic generator, and task splitting."""

import gzip
import struct

import numpy as np
import pytest

from replay_lab.datasets import (Dataset, IdxFormatError, load_fashion_mnist,
                                 make_class_il_tasks, parse_idx_images,
                                 parse_idx_labels, read_idx_file,
                                 synthetic_class_il_stream, to_idx_images,
                                 to_idx_labels)
from replay_lab.mlp import Mlp, softmax_cross_entropy


def idx_images_bytes(n, h, w, payload):
    return struct.pack(">IIII", 0x00000803, n, h, w) + bytes(payload)


def idx_labels_bytes(n, payload):
    return struct.pack(">II", 0x00000801, n) + bytes(payload)


class TestParseIdxImages:
    def test_single_max_pixel(self):
        images = parse_idx_images(idx_images_bytes(1, 1, 1, [0xFF]))
        np.testing.assert_array_equal(images, [[[1.0]]])

    def test_values_scaled_by_255(self):
        images = parse_idx_images(idx_images_bytes(1, 2, 2, [0, 51, 102, 255]))
        np.testing.assert_allclose(images[0], [[0, 0.2], [0.4, 1.0]], atol=1e-12)

    def test_label_magic_rejected(self):
        data = struct.pack(">IIII", 0x00000801, 1, 1, 1) + b"\x00"
        with pytest.raises(IdxFormatError, match="bad magic"):
            parse_idx_images(data)

    def test_truncated_payload_names_offset(self):
        data = idx_images_bytes(2, 1, 1, [7])
        with pytest.raises(IdxFormatError, match="offset 18"):
            parse_idx_images(data)

    def test_trailing_bytes_rejected(self):
        data = idx_images_bytes(1, 1, 1, [7, 8])
        with pytest.raises(IdxFormatError, match="trailing"):
            parse_idx_images(data)

    def test_dim_overflow_rejected(self):
        data = struct.pack(">IIII", 0x00000803, 2**31, 2**20, 2**20)
        with pytest.raises(IdxFormatError, match="dim overflow"):
            parse_idx_images(data)

    def test_short_header_rejected(self):
        with pytest.raises(IdxFormatError, match="offset"):
            parse_idx_images(b"\x00\x00\x08")


class TestParseIdxLabels:
    def test_three_labels(self):
        np.testing.assert_array_equal(parse_idx_labels(idx_labels_bytes(3, [0, 5, 9])),
                                      [0, 5, 9])

    def test_empty_label_set(self):
        assert parse_idx_labels(idx_labels_bytes(0, [])).shape == (0,)

    def test_image_magic_rejected(self):
        with pytest.raises(IdxFormatError, match="bad magic"):
            parse_idx_labels(idx_images_bytes(1, 1, 1, [0]))

    def test_label_out_of_class_range_rejected_at_dataset(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((1, 4)), np.array([11]), class_count=10)


class TestDatasetFeatures:
    def test_uint8_features_are_kept_as_they_are(self):
        pixels = np.array([[0, 128, 255]], dtype=np.uint8)
        assert Dataset(pixels, [0], class_count=1).features is pixels

    @pytest.mark.parametrize("features", [[[0.0, 1.5]], [[-0.1, 0.5]], [[0, 255]]])
    def test_other_features_outside_unit_interval_rejected(self, features):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            Dataset(np.array(features), [0], class_count=1)

    def test_other_dtypes_are_cast_to_float(self):
        assert Dataset(np.array([[0, 1]]), [0], class_count=1).features.dtype == np.float64


class TestIdxRoundTrip:
    def test_images_round_trip_bit_identically(self):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
        parsed = parse_idx_images(idx_images_bytes(5, 4, 3, raw.ravel().tolist()))
        reparsed = parse_idx_images(to_idx_images(parsed))
        np.testing.assert_array_equal(parsed, reparsed)

    def test_uint8_pixels_are_written_as_they_are(self):
        raw = np.random.default_rng(1).integers(0, 256, size=(3, 4, 2), dtype=np.uint8)
        raw[0, 0, :2] = [1, 255]
        assert to_idx_images(raw) == idx_images_bytes(3, 4, 2, raw.ravel().tolist())

    @pytest.mark.parametrize("write, values", [(to_idx_images, np.full((1, 1, 2), 1.5)),
                                               (to_idx_images, np.full((1, 1, 2), -0.2)),
                                               (to_idx_labels, np.array([3, 256]))])
    def test_values_that_do_not_fit_a_byte_rejected(self, write, values):
        with pytest.raises(ValueError, match="do not fit a byte"):
            write(values)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("write, values, match", [
        (to_idx_labels, np.array([1.5, 2.0]), "value 1.5 is not an integer"),
        (to_idx_labels, np.array([np.nan, 1.0]), "do not fit a byte"),
        (to_idx_images, np.array([[[np.nan, 0.5]]]), "do not fit a byte"),
    ], ids=["fractional label", "NaN label", "NaN pixel"])
    def test_values_that_are_not_bytes_rejected(self, write, values, match):
        # a cast to uint8 would truncate 1.5 to 1 and turn NaN into 0
        with pytest.raises(ValueError, match=match):
            write(values)

    def test_labels_round_trip(self):
        labels = np.array([3, 1, 4, 1, 5], dtype=np.int64)
        np.testing.assert_array_equal(parse_idx_labels(to_idx_labels(labels)), labels)

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError, match="expected 3 dimensions"):
            to_idx_images(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="expected 1 dimensions"):
            to_idx_labels(np.zeros((2, 1)))

    def test_gzip_detection(self, tmp_path):
        blob = idx_labels_bytes(2, [1, 2])
        plain = tmp_path / "labels"
        plain.write_bytes(blob)
        packed = tmp_path / "labels.gz"
        packed.write_bytes(gzip.compress(blob))
        assert read_idx_file(plain) == blob
        assert read_idx_file(packed) == blob


def write_fake_fashion_mnist(data_dir, n_train=40, n_test=20, gz=False):
    rng = np.random.default_rng(1)
    names = {
        "train-images-idx3-ubyte": idx_images_bytes(
            n_train, 28, 28, rng.integers(0, 256, size=n_train * 784, dtype=np.uint8)),
        "train-labels-idx1-ubyte": idx_labels_bytes(
            n_train, (np.arange(n_train) % 10).astype(np.uint8)),
        "t10k-images-idx3-ubyte": idx_images_bytes(
            n_test, 28, 28, rng.integers(0, 256, size=n_test * 784, dtype=np.uint8)),
        "t10k-labels-idx1-ubyte": idx_labels_bytes(
            n_test, (np.arange(n_test) % 10).astype(np.uint8)),
    }
    for name, blob in names.items():
        if gz:
            (data_dir / (name + ".gz")).write_bytes(gzip.compress(blob))
        else:
            (data_dir / name).write_bytes(blob)


class TestLoadFashionMnist:
    @pytest.mark.parametrize("gz", [False, True])
    def test_loads_both_plain_and_gz(self, tmp_path, gz):
        write_fake_fashion_mnist(tmp_path, gz=gz)
        train, test = load_fashion_mnist(tmp_path)
        assert train.features.shape == (40, 784)
        assert test.features.shape == (20, 784)
        assert train.class_count == 10

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_fashion_mnist(tmp_path)

    def test_pixels_stay_uint8_and_scale_to_the_float_parser(self, tmp_path):
        write_fake_fashion_mnist(tmp_path)
        train, test = load_fashion_mnist(tmp_path)
        for split, prefix in ((train, "train"), (test, "t10k")):
            assert split.features.dtype == np.uint8
            parsed = parse_idx_images(read_idx_file(tmp_path / f"{prefix}-images-idx3-ubyte"))
            assert parsed.dtype == np.float64
            scaled = split.features / 255.0
            assert scaled.tobytes() == parsed.reshape(len(split), -1).tobytes()

    def test_task_splits_stay_uint8(self, tmp_path):
        write_fake_fashion_mnist(tmp_path)
        stream = make_class_il_tasks(*load_fashion_mnist(tmp_path), 2, np.random.default_rng(0))
        for task in stream.tasks:
            assert task.train_features.dtype == np.uint8
            assert task.test_features.dtype == np.uint8


class TestMakeClassIlTasks:
    def make_sets(self, n_per_class=12, classes=10, dim=4):
        rng = np.random.default_rng(2)
        n = n_per_class * classes
        labels = np.repeat(np.arange(classes), n_per_class)
        train = Dataset(rng.uniform(size=(n, dim)), labels, classes)
        test = Dataset(rng.uniform(size=(n // 2, dim)),
                       np.repeat(np.arange(classes), n_per_class // 2), classes)
        return train, test

    def test_ten_classes_two_per_task(self):
        train, test = self.make_sets()
        stream = make_class_il_tasks(train, test, 2, np.random.default_rng(0))
        assert [t.class_ids for t in stream.tasks] == [
            (0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]

    def test_all_classes_in_one_task_is_the_joint_setting(self):
        train, test = self.make_sets()
        stream = make_class_il_tasks(train, test, 10, np.random.default_rng(0))
        assert stream.n_tasks == 1
        assert len(stream.tasks[0].train_labels) == len(train)

    def test_every_train_example_appears_exactly_once(self):
        train, test = self.make_sets()
        stream = make_class_il_tasks(train, test, 2, np.random.default_rng(3))
        total = sum(len(t.train_labels) for t in stream.tasks)
        assert total == len(train)
        for task in stream.tasks:
            assert set(np.unique(task.train_labels)) == set(task.class_ids)
            for c in task.class_ids:
                assert np.sum(task.train_labels == c) == np.sum(train.labels == c)

    def test_non_divisible_class_count_rejected(self):
        train, test = self.make_sets()
        with pytest.raises(ValueError):
            make_class_il_tasks(train, test, 3, np.random.default_rng(0))

    def test_deterministic_per_seed_and_partition_seed_independent(self):
        train, test = self.make_sets()
        a = make_class_il_tasks(train, test, 2, np.random.default_rng(5))
        b = make_class_il_tasks(train, test, 2, np.random.default_rng(5))
        c = make_class_il_tasks(train, test, 2, np.random.default_rng(6))
        for ta, tb in zip(a.tasks, b.tasks):
            np.testing.assert_array_equal(ta.train_features, tb.train_features)
        assert [t.class_ids for t in a.tasks] == [t.class_ids for t in c.tasks]


def pooled_train(stream):
    """All tasks' training rows and labels, in task order."""
    return (np.vstack([t.train_features for t in stream.tasks]),
            np.concatenate([t.train_labels for t in stream.tasks]))


class TestSyntheticStream:
    def test_toy_protocol_counts(self):
        _, labels = pooled_train(synthetic_class_il_stream(6, 170, 10, 2, 1.0, 2, seed=0))
        assert len(labels) == 1020
        for c in range(6):
            assert np.sum(labels == c) == 170

    def test_single_item_per_class(self):
        _, labels = pooled_train(synthetic_class_il_stream(4, 1, 1, 3, 1.0, 2, seed=0))
        assert len(labels) == 4

    def test_values_inside_unit_interval(self):
        stream = synthetic_class_il_stream(5, 50, 10, 8, 3.0, 5, seed=1)
        for task in stream.tasks:
            for feats in (task.train_features, task.test_features):
                assert feats.min() >= 0.0 and feats.max() <= 1.0

    def test_huge_separation_is_trivially_learnable(self):
        features, labels = pooled_train(synthetic_class_il_stream(2, 40, 10, 2, 100.0, 2, seed=2))
        model = Mlp([2, 16, 2], np.random.default_rng(3))
        for _ in range(50):
            logits, cache = model.forward(features)
            _, _, dl = softmax_cross_entropy(logits, labels)
            model.backward(cache, dl)
            model.sgd_step(0.5)
        logits, _ = model.forward(features)
        assert np.mean(np.argmax(logits, axis=1) == labels) == 1.0

    def test_class_il_stream_splits_and_is_deterministic(self):
        a = synthetic_class_il_stream(10, 30, 10, 16, 3.0, 2, seed=4)
        b = synthetic_class_il_stream(10, 30, 10, 16, 3.0, 2, seed=4)
        assert a.n_tasks == 5
        for task in a.tasks:
            assert len(task.train_labels) == 60
            assert len(task.test_labels) == 20
        np.testing.assert_array_equal(a.tasks[0].train_features,
                                      b.tasks[0].train_features)
