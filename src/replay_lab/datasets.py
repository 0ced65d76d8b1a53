"""Data ingestion and task splitting.

Covers the IDX binary format used by the Fashion-MNIST distribution files
(with transparent gzip detection), a synthetic Gaussian-blob generator for
fast desk-scale experiments, and the class-incremental splitter that turns a
labeled dataset into an ordered stream of class-disjoint tasks.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
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
    """Feature matrix with integer labels below ``class_count``. Features
    are uint8 pixels, kept as they are and read as k / 255 by
    ``Mlp.forward``, or floats in [0, 1]; any other dtype is cast to float."""

    features: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        self.features = np.asarray(self.features)
        if self.features.dtype != np.uint8:
            self.features = self.features.astype(float, copy=False)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be a (n, d) matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels length does not match features")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ValueError("labels must lie in [0, class_count)")
        if (self.features.dtype != np.uint8 and self.features.size
                and (self.features.min() < 0.0 or self.features.max() > 1.0)):
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


def _parse_idx(data: bytes, magic: int) -> np.ndarray:
    """Decode an unsigned-byte IDX payload that must carry ``magic``, whose
    low byte is the number of dimensions, into a uint8 array."""
    found = _read_be_u32(data, 0)
    if found != magic:
        raise IdxFormatError(f"bad magic 0x{found:08x} at offset 0 (expected 0x{magic:08x})")
    shape = tuple(_read_be_u32(data, 4 * k) for k in range(1, 1 + (magic & 0xFF)))
    count = math.prod(shape)
    if count > 2 ** 40:
        raise IdxFormatError(f"dim overflow: sizes at offset 4 imply {count} values")
    start = 4 * (1 + len(shape))
    end = start + count
    if len(data) < end:
        raise IdxFormatError(
            f"truncated payload: expected data up to offset {end}, file ends at {len(data)}")
    if len(data) > end:
        raise IdxFormatError(f"trailing bytes after offset {end}")
    return np.frombuffer(data, dtype=np.uint8, count=count, offset=start).reshape(shape)


def parse_idx_images(data: bytes) -> np.ndarray:
    """Decode an IDX image file into an (n, h, w) float tensor scaled to
    [0, 1] by dividing the raw unsigned bytes by 255."""
    return _parse_idx(data, IDX_IMAGE_MAGIC).astype(float) / 255.0


def parse_idx_labels(data: bytes) -> np.ndarray:
    """Decode an IDX label file into an (n,) integer vector."""
    return _parse_idx(data, IDX_LABEL_MAGIC).astype(np.int64)


def _to_idx(values: np.ndarray, magic: int) -> bytes:
    if values.ndim != magic & 0xFF:
        raise ValueError(f"expected {magic & 0xFF} dimensions, got shape {values.shape}")
    # a NaN fails both comparisons, so it lands here too
    if values.size and not (values.min() >= 0 and values.max() <= 255):
        raise ValueError(f"values in [{values.min()}, {values.max()}] do not fit a byte")
    whole = values == np.rint(values)
    if not whole.all():
        raise ValueError(f"value {values[~whole][0]} is not an integer, so does not fit a byte")
    header = struct.pack(f">{1 + values.ndim}I", magic, *values.shape)
    return header + values.astype(np.uint8).tobytes()


def to_idx_images(images: np.ndarray) -> bytes:
    """Inverse of ``parse_idx_images`` for tensors whose values are integer
    multiples of 1/255 (round-trips bit-exactly). uint8 pixels, as
    ``load_fashion_mnist`` returns them, are written as they are."""
    images = np.asarray(images)
    return _to_idx(images if images.dtype == np.uint8 else np.rint(images * 255.0),
                   IDX_IMAGE_MAGIC)


def to_idx_labels(labels: np.ndarray) -> bytes:
    return _to_idx(np.asarray(labels), IDX_LABEL_MAGIC)


def read_idx_file(path) -> bytes:
    """Read an IDX file, transparently gunzipping when the content starts
    with the gzip prefix bytes. Damaged gzip data raises ``IdxFormatError``
    naming the file."""
    blob = Path(path).read_bytes()
    if blob[:2] == _GZIP_PREFIX:
        try:
            blob = gzip.decompress(blob)
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise IdxFormatError(f"{path}: damaged gzip data: {exc}") from exc
    return blob


def load_fashion_mnist(data_dir) -> tuple[Dataset, Dataset]:
    """Load the four standard Fashion-MNIST IDX files from ``data_dir``.

    Accepts either plain or .gz files. Images are flattened to 784-vectors
    of the file's uint8 pixels; ``Mlp.forward`` divides them by 255.
    Raises ``IdxFormatError``, naming the file, when a file is not well-formed
    (gzip) IDX, and unless every image is 28x28, every label is a class id
    below 10 and each split holds every class.
    """
    data_dir = Path(data_dir)

    def find(name: str) -> Path:
        for candidate in (data_dir / name, data_dir / (name + ".gz")):
            if candidate.exists():
                return candidate
        raise FileNotFoundError(f"missing {name}[.gz] in {data_dir}")

    def parse(path: Path, magic: int) -> np.ndarray:
        blob = read_idx_file(path)
        try:
            return _parse_idx(blob, magic)
        except IdxFormatError as exc:
            raise IdxFormatError(f"{path}: {exc}") from None

    def load_split(images_name: str, labels_name: str) -> Dataset:
        images_path, labels_path = find(images_name), find(labels_name)
        images = parse(images_path, IDX_IMAGE_MAGIC)
        labels = parse(labels_path, IDX_LABEL_MAGIC)
        if images.shape[1:] != FASHION_MNIST_IMAGE_DIMS[:2]:
            raise IdxFormatError(f"{images_path}: images are {images.shape[1]}x"
                                 f"{images.shape[2]}, expected 28x28")
        if images.shape[0] != labels.shape[0]:
            raise IdxFormatError(f"{images_path} holds {images.shape[0]} images, "
                                 f"{labels_path} {labels.shape[0]} labels")
        bad = np.flatnonzero(labels >= FASHION_MNIST_CLASSES)
        if bad.size:
            raise IdxFormatError(f"{labels_path}: label {labels[bad[0]]} at offset {8 + bad[0]} "
                                 f"is not a class id below {FASHION_MNIST_CLASSES}")
        # a count, not np.setdiff1d, whose first call imports numpy.ma (about 20 ms)
        missing = np.flatnonzero(np.bincount(labels, minlength=FASHION_MNIST_CLASSES) == 0)
        if missing.size:
            raise IdxFormatError(f"{labels_path}: no item of class {missing[0]}; "
                                 f"each split needs all {FASHION_MNIST_CLASSES} classes")
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

