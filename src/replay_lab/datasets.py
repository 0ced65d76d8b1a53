"""Data ingestion and task splitting.

Covers the IDX binary format used by the Fashion-MNIST distribution files
(with transparent gzip detection), a synthetic Gaussian-blob generator for
fast desk-scale experiments, and the class-incremental splitter that turns a
labeled dataset into an ordered stream of class-disjoint tasks.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
_GZIP_PREFIX = b"\x1f\x8b"

FASHION_MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}
FASHION_MNIST_CLASSES = 10
FASHION_MNIST_IMAGE_DIMS = (28, 28, 1)


class IdxFormatError(ValueError):
    """Malformed IDX payload; the message names the offending byte offset."""


@dataclass
class Dataset:
    """Feature matrix in [0, 1] with integer labels below ``class_count``."""

    features: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be a (n, d) matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels length does not match features")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ValueError("labels must lie in [0, class_count)")
        if self.features.size and (self.features.min() < 0.0 or self.features.max() > 1.0):
            raise ValueError("feature values must lie in [0, 1]")

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass
class Task:
    class_ids: tuple[int, ...]
    train_features: np.ndarray
    train_labels: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray


@dataclass
class TaskStream:
    """Ordered class-disjoint tasks with their held-out test sets."""

    tasks: list[Task]
    class_count: int

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def feature_dim(self) -> int:
        return self.tasks[0].train_features.shape[1]


# -- IDX parsing --------------------------------------------------------------


def _read_be_u32(data: bytes, offset: int) -> int:
    if len(data) < offset + 4:
        raise IdxFormatError(f"truncated payload: header field at offset {offset} is incomplete")
    return struct.unpack_from(">I", data, offset)[0]


def parse_idx_images(data: bytes) -> np.ndarray:
    """Decode an IDX image file into an (n, h, w) float tensor scaled to
    [0, 1] by dividing the raw unsigned bytes by 255."""
    magic = _read_be_u32(data, 0)
    if magic != IDX_IMAGE_MAGIC:
        raise IdxFormatError(
            f"bad magic 0x{magic:08x} at offset 0 (expected 0x{IDX_IMAGE_MAGIC:08x})")
    n = _read_be_u32(data, 4)
    h = _read_be_u32(data, 8)
    w = _read_be_u32(data, 12)
    count = n * h * w
    if count > 2 ** 40:
        raise IdxFormatError(f"dim overflow: sizes at offset 4 imply {count} pixels")
    end = 16 + count
    if len(data) < end:
        raise IdxFormatError(
            f"truncated payload: expected data up to offset {end}, file ends at {len(data)}")
    if len(data) > end:
        raise IdxFormatError(f"trailing bytes after offset {end}")
    raw = np.frombuffer(data, dtype=np.uint8, count=count, offset=16)
    return raw.reshape(n, h, w).astype(float) / 255.0


def parse_idx_labels(data: bytes) -> np.ndarray:
    """Decode an IDX label file into an (n,) integer vector."""
    magic = _read_be_u32(data, 0)
    if magic != IDX_LABEL_MAGIC:
        raise IdxFormatError(
            f"bad magic 0x{magic:08x} at offset 0 (expected 0x{IDX_LABEL_MAGIC:08x})")
    n = _read_be_u32(data, 4)
    if n > 2 ** 40:
        raise IdxFormatError(f"dim overflow: size at offset 4 implies {n} labels")
    end = 8 + n
    if len(data) < end:
        raise IdxFormatError(
            f"truncated payload: expected data up to offset {end}, file ends at {len(data)}")
    if len(data) > end:
        raise IdxFormatError(f"trailing bytes after offset {end}")
    return np.frombuffer(data, dtype=np.uint8, count=n, offset=8).astype(np.int64)


def to_idx_images(images: np.ndarray) -> bytes:
    """Inverse of ``parse_idx_images`` for tensors whose values are integer
    multiples of 1/255 (round-trips bit-exactly)."""
    images = np.asarray(images)
    n, h, w = images.shape
    header = struct.pack(">IIII", IDX_IMAGE_MAGIC, n, h, w)
    raw = np.rint(images * 255.0).astype(np.uint8)
    return header + raw.tobytes()


def to_idx_labels(labels: np.ndarray) -> bytes:
    labels = np.asarray(labels)
    header = struct.pack(">II", IDX_LABEL_MAGIC, labels.shape[0])
    return header + labels.astype(np.uint8).tobytes()


def read_idx_file(path) -> bytes:
    """Read an IDX file, transparently gunzipping when the content starts
    with the gzip prefix bytes."""
    blob = Path(path).read_bytes()
    if blob[:2] == _GZIP_PREFIX:
        blob = gzip.decompress(blob)
    return blob


def load_fashion_mnist(data_dir) -> tuple[Dataset, Dataset]:
    """Load the four standard Fashion-MNIST IDX files from ``data_dir``.

    Accepts either plain or .gz files. Images are flattened to 784-vectors.
    """
    data_dir = Path(data_dir)

    def find(name: str) -> Path:
        for candidate in (data_dir / name, data_dir / (name + ".gz")):
            if candidate.exists():
                return candidate
        raise FileNotFoundError(f"missing {name}[.gz] in {data_dir}")

    def load_split(images_name: str, labels_name: str) -> Dataset:
        images = parse_idx_images(read_idx_file(find(images_name)))
        labels = parse_idx_labels(read_idx_file(find(labels_name)))
        if images.shape[0] != labels.shape[0]:
            raise IdxFormatError(
                f"image/label count mismatch: {images.shape[0]} vs {labels.shape[0]}")
        return Dataset(images.reshape(images.shape[0], -1), labels,
                       class_count=FASHION_MNIST_CLASSES)

    train = load_split(FASHION_MNIST_FILES["train_images"],
                       FASHION_MNIST_FILES["train_labels"])
    test = load_split(FASHION_MNIST_FILES["test_images"],
                      FASHION_MNIST_FILES["test_labels"])
    return train, test


# -- task splitting ------------------------------------------------------------


def make_class_il_tasks(train: Dataset, test: Dataset, classes_per_task: int,
                        rng: np.random.Generator) -> TaskStream:
    """Group classes in ascending id order into consecutive tasks.

    Train subsets are shuffled with the injected generator; test subsets keep
    their source order. The class partition itself is deterministic.
    """
    if train.class_count != test.class_count:
        raise ValueError("train and test class counts differ")
    if train.class_count % classes_per_task != 0:
        raise ValueError(
            f"class_count {train.class_count} not divisible by classes_per_task {classes_per_task}")
    tasks = []
    for start in range(0, train.class_count, classes_per_task):
        class_ids = tuple(range(start, start + classes_per_task))
        train_idx = np.flatnonzero(np.isin(train.labels, class_ids))
        train_idx = train_idx[rng.permutation(train_idx.size)]
        test_idx = np.flatnonzero(np.isin(test.labels, class_ids))
        tasks.append(Task(
            class_ids=class_ids,
            train_features=train.features[train_idx],
            train_labels=train.labels[train_idx],
            test_features=test.features[test_idx],
            test_labels=test.labels[test_idx],
        ))
    return TaskStream(tasks=tasks, class_count=train.class_count)


def synthetic_class_il_stream(class_count: int, per_class_train: int,
                              per_class_test: int, feature_dim: int,
                              separation: float, classes_per_task: int,
                              seed: int) -> TaskStream:
    """Train/test blob datasets rescaled jointly, split into tasks.

    Generating both splits from one pool keeps their geometry identical,
    which a per-split rescale would not.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5B10B5]))
    per_class = per_class_train + per_class_test
    features, labels = _raw_blobs(class_count, per_class, feature_dim, separation, rng)
    features = _rescale_unit(features)
    train_mask = np.zeros(len(labels), dtype=bool)
    for c in range(class_count):
        idx = np.flatnonzero(labels == c)
        train_mask[idx[:per_class_train]] = True
    train = Dataset(features[train_mask], labels[train_mask], class_count)
    test = Dataset(features[~train_mask], labels[~train_mask], class_count)
    return make_class_il_tasks(train, test, classes_per_task, rng)


def _raw_blobs(class_count, per_class, feature_dim, separation, rng):
    # Axis c % d at magnitude (1 + c // d) * separation: same-axis means are
    # multiples of separation apart, cross-axis pairs at least sqrt(2) *
    # separation, so every pair is >= separation apart.
    means = np.zeros((class_count, feature_dim))
    for c in range(class_count):
        means[c, c % feature_dim] = (1 + c // feature_dim) * separation
    features = np.vstack([
        rng.normal(loc=means[c], scale=1.0, size=(per_class, feature_dim))
        for c in range(class_count)
    ])
    labels = np.repeat(np.arange(class_count), per_class)
    return features, labels


def _rescale_unit(features: np.ndarray) -> np.ndarray:
    lo = features.min(axis=0)
    span = features.max(axis=0) - lo
    span[span == 0.0] = 1.0
    return (features - lo) / span

