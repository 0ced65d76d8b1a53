"""Seeded runs are pinned to fixed report digests.

Each case runs a small seeded class-incremental experiment and hashes its
report (canonical JSON, ``wall_clock_seconds`` dropped). A refactor that
keeps the random draws, their order and every float operation leaves the
digests unchanged; a change that moves any number must update the table and
say which outputs moved and why. The digests were recorded with numpy 2.4
on OpenBLAS; another BLAS build may round matrix products differently.
"""

import hashlib
import json

import pytest

from replay_lab.datasets import synthetic_class_il_stream
from replay_lab.trainer import TrainConfig, run_class_il

STREAM = dict(class_count=6, per_class_train=40, per_class_test=15,
              feature_dim=16, separation=4.0, classes_per_task=2, seed=3)
BASE = dict(buffer_capacity=18, replay_batch_size=8, stream_batch_size=10,
            hidden_dims=(12,), lr0=0.1, bias_epochs=5, bias_batch_size=8, seed=1)

CASES = {
    "reservoir": dict(),
    "brs-cbic": dict(brs=True, cbic=True),
    "lars-bic-elrd": dict(lars=True, bic=True, elrd=True),
    "ring": dict(base_strategy="ring"),
    "iba-stream-aug": dict(iba=True, aug_stream_enabled=True, aug_max_shift=1,
                           aug_hflip_prob=0.5, image_dims=(4, 4, 1)),
}

DIGESTS = {
    "reservoir":
        "be39f08d642352282588ed4f9cc7a05352f96f5ab00eec83b3dfba2441801732",
    "brs-cbic":
        "4c6b938a7fe1bc87325bfd994652a492c8319c5210bfb5af8368d305d0964937",
    "lars-bic-elrd":
        "faaf30c63576928c3d8ab3b8bf05fd6945adca1a1e39c6d1c46f098b476f5830",
    "ring":
        "bebf32d41c0da703b9eebcec4e67f6a7d645fc6434f83333cbe4ff2f0f116d81",
    "iba-stream-aug":
        "a49ee5c70fdc8c46f020f0f794358469284a8dda85aeccb71159db71366ebcec",
}


def report_digest(report) -> str:
    payload = report.to_json_dict()
    del payload["wall_clock_seconds"]
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_seeded_report_digest_is_pinned(case):
    stream = synthetic_class_il_stream(**STREAM)
    report = run_class_il(stream, TrainConfig(**BASE, **CASES[case]))
    assert report_digest(report) == DIGESTS[case]
