"""Seeded runs are pinned to fixed report digests.

Each case runs a small seeded class-incremental experiment and hashes its
report (canonical JSON, ``wall_clock_seconds`` dropped). A refactor that
keeps the random draws, their order and every float operation leaves the
digests unchanged; a change that moves any number must update the table and
say which outputs moved and why. The digests were recorded with numpy 2.4
on OpenBLAS; another BLAS build may round matrix products differently.

A second table hashes the same JSON with every float rounded to ten
significant digits. A change that only reorders float summation moves the
exact digests but not the rounded ones, so the pair tells "only rounding
moved" apart from "a number moved".

One more case runs the image path end to end: 28x28 IDX files that the
test writes, read by ``load_fashion_mnist``, split into tasks and trained
with shift and flip augmentation on the stream and on every replay draw.

Two more pins cover what no report reaches: the count matrices of the
buffer-balance study and the hash of the default configuration. A failing
pin prints the digest it got, so a re-pin reads the new value from the
failure message.
"""

import hashlib
import json
import struct

import numpy as np
import pytest

from replay_lab.cli import balance_toy, load_experiment_config
from replay_lab.datasets import load_fashion_mnist, make_class_il_tasks, synthetic_class_il_stream
from replay_lab.trainer import TrainConfig, run_class_il

STREAM = dict(class_count=6, per_class_train=40, per_class_test=15,
              feature_dim=16, separation=4.0, classes_per_task=2, seed=3)
BASE = dict(buffer_capacity=18, replay_batch_size=8, stream_batch_size=10,
            hidden_dims=(12,), lr0=0.1, bias_epochs=5, bias_batch_size=8, seed=1)

CASES = {
    "reservoir": dict(),
    "brs-cbic": dict(brs=True, cbic=True),
    "sgd-cbic": dict(replay_enabled=False, cbic=True),
    "lars-bic-elrd": dict(lars=True, bic=True, elrd=True),
    "ring": dict(base_strategy="ring"),
    "iba-stream-aug": dict(iba=True, aug_stream_enabled=True, aug_max_shift=1,
                           aug_hflip_prob=0.5, image_dims=(4, 4, 1)),
}

IDX_CASE = "idx-iba-bic-elrd"
IDX_CONFIG = dict(iba=True, bic=True, elrd=True, aug_stream_enabled=True, aug_max_shift=2,
                  aug_hflip_prob=0.5, image_dims=(28, 28, 1))

DIGESTS = {
    "reservoir":
        "d2825c90188a10bb1c1309e7a9699d871947c5398360664fb92d242b451c6272",
    "brs-cbic":
        "ded78e0cf45e6759bbbf8b541c60a5126891aed6c537610952e53d45c0827e5c",
    "sgd-cbic":
        "65d8ad8c4cd2f0592f5a8e55736d2066635c56f83e3623e7b119dc1a7dd828e0",
    "lars-bic-elrd":
        "212cda2cf6a1ad197040c0ee8714f396b03b5787a4bc79538d470cd1e7fc1d95",
    "ring":
        "1f8e12e685bcdb32d69ef8d812acfbe1cfd0cff5cabedc2764486323ba8b17be",
    "iba-stream-aug":
        "f8757c76987cb664e26644fc26cb36d9d5aa02249f213fb53f028a8f1a01efa6",
    IDX_CASE:
        "9db0b1adf6f2f6a839793d0c243bb84bc3edd6fb31d3277523468bdbc5c80a65",
}

ROUNDED_DIGESTS = {
    "reservoir":
        "b660912df7be0376964344d7ac6dc295254814667a7189e7874c530718eb12b6",
    "brs-cbic":
        "e78509bddb1d1de58c54a2051c8565181dbbd4d5c4e4aaf37ac4e4ef9dd98a7b",
    "sgd-cbic":
        "1c14af96e2263ee58fd5c23508aa3e1aadf16c7d5110a51f95ee40fb728961e0",
    "lars-bic-elrd":
        "f755ef8a671a17396458dc79c285efa78be2a381b64966b87021acbe53c49351",
    "ring":
        "02d9e248023c0696777364ec640acc4b71ad039072d507b3346d17d3abfcd7ab",
    "iba-stream-aug":
        "837290d653616c5207903760e5dc3e89e0084cd4a720c493d14ca09f0176dad0",
    IDX_CASE:
        "581b585d78089b6b8c308d2a73d64eab42f48bde82efae243ade7f6be6c94563",
}


def rounded(value):
    """``value`` with every float rounded to ten significant digits."""
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, dict):
        return {k: rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [rounded(v) for v in value]
    return value


def report_digest(report, transform=lambda payload: payload) -> str:
    payload = report.to_json_dict()
    del payload["wall_clock_seconds"]
    blob = json.dumps(transform(payload), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_seeded_report_digest_is_pinned(case):
    stream = synthetic_class_il_stream(**STREAM)
    report = run_class_il(stream, TrainConfig(**BASE, **CASES[case]))
    exact, rounded_digest = report_digest(report), report_digest(report, rounded)
    assert exact == DIGESTS[case], f"exact digest of {case!r} is {exact}"
    assert rounded_digest == ROUNDED_DIGESTS[case], \
        f"rounded digest of {case!r} is {rounded_digest}"


def write_idx_images(path, labels, rng):
    """28x28 images: one random two-level template per class plus noise,
    clipped so that both 0 and 255 occur."""
    templates = np.random.default_rng(7).integers(0, 2, size=(10, 784)) * 230
    pix = np.clip(templates[labels] + rng.integers(-20, 40, size=(len(labels), 784)), 0, 255)
    path.write_bytes(struct.pack(">IIII", 0x00000803, len(labels), 28, 28)
                     + pix.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    path.write_bytes(struct.pack(">II", 0x00000801, len(labels))
                     + labels.astype(np.uint8).tobytes())


def test_idx_image_report_digest_is_pinned(tmp_path):
    rng = np.random.default_rng(5)
    for prefix, n in (("train", 80), ("t10k", 30)):
        labels = np.tile(np.arange(10), n // 10)
        write_idx_images(tmp_path / f"{prefix}-images-idx3-ubyte", labels, rng)
        write_idx_labels(tmp_path / f"{prefix}-labels-idx1-ubyte", labels)
    train, test = load_fashion_mnist(tmp_path)
    stream = make_class_il_tasks(train, test, 2, np.random.default_rng(11))
    report = run_class_il(stream, TrainConfig(**BASE, **IDX_CONFIG))
    exact, rounded_digest = report_digest(report), report_digest(report, rounded)
    assert exact == DIGESTS[IDX_CASE], f"exact digest of {IDX_CASE!r} is {exact}"
    assert rounded_digest == ROUNDED_DIGESTS[IDX_CASE], \
        f"rounded digest of {IDX_CASE!r} is {rounded_digest}"


def test_balance_toy_counts_are_pinned():
    h = hashlib.sha256()
    for strategy, counts in balance_toy(100, 0).items():
        h.update(strategy.encode())
        h.update(counts.tobytes())
    assert h.hexdigest() == \
        "d2a6df9f4c1cbb397d91dc4b8a5d536e0381a17948fa7fbe490e5d73d17bf8f8", \
        f"balance-toy digest is {h.hexdigest()}"


def test_default_config_hash_is_pinned():
    got = load_experiment_config(None, {}).config_hash()
    assert got == "71de3391fc97589670c0fedd8fce15b750d2d3dc108dab1fc11d5d5bfbe6b1c0", \
        f"default config hash is {got}"
