"""Fashion-MNIST-shaped inputs for the ``fmnist-iba`` workload.

The images are written with this module's own ``struct``/``gzip`` IDX
writer, so the benchmark can check the program's parser against arrays it
did not produce with the program's serializer.

Each class has a fixed 28x28 template: a 7x7 grid of cells, upsampled 4x,
mirrored left-right so a horizontal flip keeps the class, and made of a
pattern shared by all classes plus one of its own, so classes overlap. The
templates are part of the workload and never change; the seed picks the
order of the labels, a per-image brightness and the pixel noise. Pixels are
quantised to multiples of 1/255, as in the real files.
"""

from __future__ import annotations

import gzip
import struct
from pathlib import Path

import numpy as np

CLASSES = 10
SIDE = 28
TRAIN_PER_CLASS = 1000
TEST_PER_CLASS = 200
TEMPLATE_SEED = 20201012
OWN_SHARE = 0.6
NOISE_SD = 0.6

FILES = {
    "train": ("train-images-idx3-ubyte.gz", "train-labels-idx1-ubyte.gz"),
    "test": ("t10k-images-idx3-ubyte.gz", "t10k-labels-idx1-ubyte.gz"),
}


def class_templates() -> np.ndarray:
    """(CLASSES, SIDE, SIDE) templates with values in [0, 1]."""
    rng = np.random.default_rng(TEMPLATE_SEED)
    cells = SIDE // 4
    own = rng.uniform(0.4, 1.0, (CLASSES, cells, cells)) \
        * (rng.uniform(size=(CLASSES, cells, cells)) < 0.3)
    shared = rng.uniform(0.4, 1.0, (cells, cells)) * (rng.uniform(size=(cells, cells)) < 0.5)
    grid = np.kron(OWN_SHARE * own + (1.0 - OWN_SHARE) * shared, np.ones((4, 4)))
    return 0.5 * (grid + grid[:, :, ::-1])


def make_split(seed: int, split: str) -> tuple[np.ndarray, np.ndarray]:
    """(n, 28, 28) uint8 images and (n,) uint8 labels of one split."""
    per_class = TRAIN_PER_CLASS if split == "train" else TEST_PER_CLASS
    rng = np.random.default_rng(np.random.SeedSequence([seed, list(FILES).index(split)]))
    labels = rng.permutation(np.repeat(np.arange(CLASSES), per_class))
    brightness = rng.uniform(0.6, 1.0, size=(labels.size, 1, 1))
    images = class_templates()[labels] * brightness \
        + rng.normal(0.0, NOISE_SD, size=(labels.size, SIDE, SIDE))
    return (np.rint(np.clip(images, 0.0, 1.0) * 255.0).astype(np.uint8),
            labels.astype(np.uint8))


def idx_bytes(array: np.ndarray) -> bytes:
    """IDX encoding of a uint8 array: magic 0x0000 08 <ndim>, big-endian
    u32 sizes, then the raw bytes."""
    array = np.ascontiguousarray(array, dtype=np.uint8)
    header = struct.pack(f">I{array.ndim}I", 0x0800 | array.ndim, *array.shape)
    return header + array.tobytes()


def write_dataset(seed: int, data_dir: Path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Write the four gzipped IDX files of ``seed`` into ``data_dir`` and
    return the (images, labels) written for each split."""
    data_dir.mkdir(parents=True, exist_ok=True)
    written = {}
    for split, names in FILES.items():
        written[split] = make_split(seed, split)
        for array, name in zip(written[split], names):
            blob = gzip.compress(idx_bytes(array), compresslevel=1, mtime=0)
            (data_dir / name).write_bytes(blob)
    return written
