"""Seeded runs are pinned to fixed report digests.

Each case runs a small seeded class-incremental experiment and hashes its
report (canonical JSON, ``wall_clock_seconds`` dropped). A refactor that
keeps the random draws, their order and every float operation leaves the
digests unchanged; a change that moves any number must update the table and
say which outputs moved and why. The digests were recorded with numpy 2.4
on OpenBLAS; another BLAS build may round matrix products differently.

Two more pins cover what no report reaches: the count matrices of the
buffer-balance study and the hash of the default configuration.
"""

import hashlib
import json

import pytest

from replay_lab.cli import balance_toy, load_experiment_config
from replay_lab.datasets import synthetic_class_il_stream
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

DIGESTS = {
    "reservoir":
        "be39f08d642352282588ed4f9cc7a05352f96f5ab00eec83b3dfba2441801732",
    "brs-cbic":
        "4c6b938a7fe1bc87325bfd994652a492c8319c5210bfb5af8368d305d0964937",
    "sgd-cbic":
        "fa413d76c09944442989e11805ef446cd577d83950aa42471bcc34b10a1f7a36",
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


def test_balance_toy_counts_are_pinned():
    h = hashlib.sha256()
    for strategy, counts in balance_toy(100, 0).items():
        h.update(strategy.encode())
        h.update(counts.tobytes())
    assert h.hexdigest() == \
        "1ca740478e323fd662713925c92fc1a9fc627567850b1661e7ce64ec91e789ba"


def test_default_config_hash_is_pinned():
    assert load_experiment_config(None, {}).config_hash() == \
        "71de3391fc97589670c0fedd8fce15b750d2d3dc108dab1fc11d5d5bfbe6b1c0"
