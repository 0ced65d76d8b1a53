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
    "iba-stream-aug": dict(iba=True, aug_stream_enabled=True, aug_max_shift=1,
                           aug_hflip_prob=0.5, image_dims=(4, 4, 1)),
}

IDX_CASE = "idx-iba-bic-elrd"
IDX_CONFIG = dict(iba=True, bic=True, elrd=True, aug_stream_enabled=True, aug_max_shift=2,
                  aug_hflip_prob=0.5, image_dims=(28, 28, 1))

DIGESTS = {
    "reservoir":
        "13f75b0fe3a935c0b20fa3fef4fc09fcf6890043bd544eb874dfa74e1338b02a",
    "brs-cbic":
        "85ddfa4c4e01fe4216f5afc1c6bf5619a0d8b6d24555daed208d5c0d036c9468",
    "sgd-cbic":
        "cdb8af9cbb0b7590c0e823b532cbb47e093ceea56b570c8c633ba253ce1c59a0",
    "lars-bic-elrd":
        "2f558c17e41f2ec14869aa7ba030405e5e62f44f73654a3b2231f43b34f6d994",
    "iba-stream-aug":
        "bbcb89e4f3a4fb991480ce1a0fb4c47465807cbd409ff0356db972f042e7a48d",
    IDX_CASE:
        "64ccc0857081bbc0e5446e793dcf2cecd5b8397a974dcd1b17300cdd97aaf43e",
}

ROUNDED_DIGESTS = {
    "reservoir":
        "da809637dc5c0ca140eb015157b3be0b0f13ffffad6a23ac8b4793a73f36c087",
    "brs-cbic":
        "8686c9ba66fd73c94f5c28786be1e43f02e9aafa1a178ce126231794030d6752",
    "sgd-cbic":
        "2f269886a8584d163e3ac616a27c66ff0aefa4c4ad252dd27dc51ce70f459feb",
    "lars-bic-elrd":
        "e942a6d0aa5cb6db16cdcaf108d81cb68bf6e5c3de0cabe8f4a2db3943c4858e",
    "iba-stream-aug":
        "64a910aefad4f1dd9ff43b92ed8c8d359052483ceaa0a5b461394535901e7229",
    IDX_CASE:
        "5d558aca7c848d73d95f849d2edc8b3601e319fe70dce6abd119f9f47d9963b7",
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
    assert got == "e4744e5ece315dfc4d553c3f0ba280ec05012eddd58f38c1296e3c56d9deaff1", \
        f"default config hash is {got}"
