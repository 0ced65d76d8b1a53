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
        "50aaf20cba33d17d658826f19fe5aabcc09f9e5ac6931abe91746041b00b43fd",
    "brs-cbic":
        "91ee4943934b42b0bfdf8434da8a281e2bacb0c50c62fb086444de11963bebb7",
    "sgd-cbic":
        "fa413d76c09944442989e11805ef446cd577d83950aa42471bcc34b10a1f7a36",
    "lars-bic-elrd":
        "4afb001c6a8341ffe342dcc619eb583382cf942c63b695336a0dcbb88b7fbf71",
    "ring":
        "604e449649e4db92be4b8f965a747f2de2a9705209bf239d138c1df090f18f51",
    "iba-stream-aug":
        "5115676a0b2cd86cb53c7d68748b4fdbfa5654d8b944b4bf6a120d50c56ba957",
}

ROUNDED_DIGESTS = {
    "reservoir":
        "cd556a3bc6041a9970adabdf7c1e85d231f70fd5b813ad3fac537e65200dfd88",
    "brs-cbic":
        "b65717db074018cbd6edee1705bda794c9332bab8c7ab9bb0449d5968bdd0d90",
    "sgd-cbic":
        "588ba8cc4442038cc3b04faea1d608a3483685b3c07d1e0d9b233e5a4ef41065",
    "lars-bic-elrd":
        "966407c9a6ac3291e15aa9b7bb4e06bf8427977960be76e04e004bb42450a804",
    "ring":
        "02d9e248023c0696777364ec640acc4b71ad039072d507b3346d17d3abfcd7ab",
    "iba-stream-aug":
        "bdc3d0f1ef052bd361956a2f266983ef840b68fab6f0947861797b25604c6b82",
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
    assert report_digest(report) == DIGESTS[case]
    assert report_digest(report, rounded) == ROUNDED_DIGESTS[case]


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
