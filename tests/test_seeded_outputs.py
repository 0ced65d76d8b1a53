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
moved" apart from "a number moved". Two more tables keep the exact digests
from before a report key and a configuration key were removed, and check
that the report with the keys put back still hashes to them.

A fourth table pins what no report holds, the run's final state: the bytes
of the buffer's labels, stored losses and stored features, and of the
model's parameters. The tests reach that state by wrapping
``trainer.init_state``.

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
import os
import struct

import numpy as np
import pytest

from replay_lab import cli, trainer
from replay_lab.cli import balance_toy, load_experiment_config
from replay_lab.datasets import load_fashion_mnist, make_class_il_tasks, synthetic_class_il_stream
from replay_lab.trainer import TrainConfig, run_class_il

STREAM = dict(class_count=6, per_class_train=40, per_class_test=15,
              feature_dim=16, separation=4.0, classes_per_task=2, seed=3)
BASE = dict(buffer_capacity=18, replay_batch_size=8, stream_batch_size=10,
            hidden_dims=(12,), lr0=0.1, seed=1)

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
        "4ad71c9eafedf7def6981c8f02076978a6ebef95b3045399432488ac592b314a",
    "brs-cbic":
        "08a4546adeef2cd17c884e67114344256cb548aec2e7254ff33a916efcd6e436",
    "sgd-cbic":
        "f577b7509857f7c375a21803b305486ac3be481433b046ed40dae20eec57d760",
    "lars-bic-elrd":
        "b3ac7376339f1e6d3096cedcf311a0341537913b590f255ac2e1c01724ef1709",
    "iba-stream-aug":
        "09ff6326ae4d32298a907de356c0fddd578c954b756f652145fff777c7480ba1",
    IDX_CASE:
        "968e71934ec0c460b08f281d18202a23e686a5f3d7517de8038f6ea2736df443",
}

ROUNDED_DIGESTS = {
    "reservoir":
        "aa3f6ced1045042bac9193020e993cb5b3b8f7529d756834f97af00ac21f22a5",
    "brs-cbic":
        "e70a3e634cccd9a18a43974597e65ceffcb9578f09fd5c3209f2108ba0f17409",
    "sgd-cbic":
        "1b8382139bea10a16ef8f5aac6d7407778f726667c2eafda588c5b0381180e15",
    "lars-bic-elrd":
        "75690a172a6b70aef69ff96a0addd874dff37141814c6048e7f588c78d781a68",
    "iba-stream-aug":
        "b7fb937926e18bbcff3acc49305b36062fe4bf37fcf242aadc92e277d7e2508c",
    IDX_CASE:
        "9e361271a377feab6022b965e638ac5518e49c13841f50470c6a5bab449f8187",
}

# The exact digests from before ``buffer_slot_audit`` left the report. A
# report with the dump rebuilt from the final buffer, one [slot, label, loss]
# triple per filled slot, must hash to them: dropping the key moved no number.
DIGESTS_WITH_SLOT_AUDIT = {
    "reservoir":
        "28555db2719b137543cb0d30274ef0b973378d19fa810688329851092df481ff",
    "brs-cbic":
        "90fea93abfc2a047b57af53394573fe7c9ffb9e0206bf2d85e076617841e701d",
    "sgd-cbic":
        "aba87762eb2abef6c1ebfb555e3ffa709ba71d85b63673ef982753bfb4643082",
    "lars-bic-elrd":
        "c75052f9afecdac628b566489cdd7b18decf9ea97beef0a19cdcee6b24b8b900",
    "iba-stream-aug":
        "03c9310ec4705d7d7e564d29507e299794f213032fb1412d2a80b3c385720506",
    IDX_CASE:
        "d1933ed2a1a9c1e8b9252aad733845d7a107a2159ee90d92306f2b2f11c6b20b",
}

# The exact digests from before ``decay_fraction`` left the configuration,
# when its one value was 1/6 (and while the report still held the dump). A
# report with both keys put back must hash to them.
DIGESTS_WITH_DECAY_FRACTION = {
    "reservoir":
        "03764ee558702cf3d072aeb73af26ea4d4f4a0640aed3f83c1c49ebc18e096f7",
    "brs-cbic":
        "8ed5efe2c330231765f39a93a8250f85a912882dea15a7faee264fa9c043f41d",
    "sgd-cbic":
        "82b99c5dadbad827b666593a317d348e8403a21dd19ff658dae3cd0b0b4811c2",
    "lars-bic-elrd":
        "4d588f875fce0a4caa000a53c400b89b7400016ba69ef12b9b2b737cd1f67adb",
    "iba-stream-aug":
        "c3571d03c3130d3dde3013d4370a7910c1c2f3825b17ef48234abdb758a6d5fe",
    IDX_CASE:
        "ed80403dfed1ff5741f1a8aaa1b3f2509a538249e7a11d967fbfc1033cf3fced",
}

# sha256 of the final buffer.labels, buffer.loss, buffer.features and
# model.params bytes, in that order.
STATE_DIGESTS = {
    "reservoir":
        "27963cc5e8765f1e6b67927585e2c0b098b3538b421ac9236314e63f1b3ee802",
    "brs-cbic":
        "28f7537ad6ce884f7a7b356e798e74b9d95c2e48ebece17401591b9f6cc0794f",
    "sgd-cbic":
        "47c8f86948e756833c5e5b588968e99cf7cfe48a639309cb538d0f47e8143f2e",
    "lars-bic-elrd":
        "a0eb523670a059809d1ff30e3db4c82d2e81000b595530735291f47b67243604",
    "iba-stream-aug":
        "0029196207caa2303056df8a62e1fd711d41e0ba7f6cf2b7f7bb331b9580b45f",
    IDX_CASE:
        "f3ec0d7cfc658f2b90595f83612400157cb63297af8646f6a6c35fcf87a19bfa",
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


def with_slot_audit(buffer):
    n = buffer.n_filled
    audit = [[i, label, loss] for i, (label, loss)
             in enumerate(zip(buffer.labels[:n].tolist(), buffer.loss[:n].tolist()))]
    return lambda payload: dict(payload, buffer_slot_audit=audit)


def with_decay_fraction(payload):
    return dict(payload, config=dict(payload["config"], decay_fraction=1 / 6))


def report_digest(report, transform=lambda payload: payload) -> str:
    payload = report.to_json_dict()
    del payload["wall_clock_seconds"]
    blob = json.dumps(transform(payload), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def state_digest(state) -> str:
    h = hashlib.sha256()
    for array in (state.buffer.labels, state.buffer.loss, state.buffer.features,
                  state.model.params):
        h.update(array.tobytes())
    return h.hexdigest()


def run_and_capture(monkeypatch, stream, config):
    """The run's report and its final ``TrainState``."""
    init_state, states = trainer.init_state, []

    def capturing_init_state(*args, **kwargs):
        states.append(init_state(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(trainer, "init_state", capturing_init_state)
    report = run_class_il(stream, config)
    (state,) = states
    return report, state


def check_pins(case, report, state):
    exact, rounded_digest = report_digest(report), report_digest(report, rounded)
    assert exact == DIGESTS[case], f"exact digest of {case!r} is {exact}"
    assert rounded_digest == ROUNDED_DIGESTS[case], \
        f"rounded digest of {case!r} is {rounded_digest}"
    audit = with_slot_audit(state.buffer)
    assert report_digest(report, audit) == DIGESTS_WITH_SLOT_AUDIT[case]
    assert report_digest(report, lambda payload: with_decay_fraction(audit(payload))) \
        == DIGESTS_WITH_DECAY_FRACTION[case]
    got = state_digest(state)
    assert got == STATE_DIGESTS[case], f"state digest of {case!r} is {got}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_seeded_report_digest_is_pinned(case, monkeypatch):
    stream = synthetic_class_il_stream(**STREAM)
    check_pins(case, *run_and_capture(monkeypatch, stream, TrainConfig(**BASE, **CASES[case])))


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


def test_idx_image_report_digest_is_pinned(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    for prefix, n in (("train", 80), ("t10k", 30)):
        labels = np.tile(np.arange(10), n // 10)
        write_idx_images(tmp_path / f"{prefix}-images-idx3-ubyte", labels, rng)
        write_idx_labels(tmp_path / f"{prefix}-labels-idx1-ubyte", labels)
    train, test = load_fashion_mnist(tmp_path)
    stream = make_class_il_tasks(train, test, 2, np.random.default_rng(11))
    check_pins(IDX_CASE, *run_and_capture(monkeypatch, stream,
                                          TrainConfig(**BASE, **IDX_CONFIG)))


@pytest.mark.parametrize("processes", [1, 2])
def test_balance_toy_counts_are_pinned(monkeypatch, two_processes, processes):
    if processes == 1:   # the BLAS thread variables are unset: nothing forks
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("balance-toy forked"))
    else:
        forks = two_processes(cli, "balance_repetition")
    h = hashlib.sha256()
    for strategy, counts in balance_toy(100, 0).items():
        h.update(strategy.encode())
        h.update(counts.tobytes())
    assert h.hexdigest() == \
        "d2a6df9f4c1cbb397d91dc4b8a5d536e0381a17948fa7fbe490e5d73d17bf8f8", \
        f"balance-toy digest is {h.hexdigest()}"
    assert processes == 1 or len(forks.callers()) == 2


def test_default_config_hash_is_pinned():
    got = load_experiment_config(None, {}).config_hash()
    assert got == "774bfd2a7270314729993ff17b4ab4bc9b7887ad5c1ca1d07acb51e6a6625b61", \
        f"default config hash is {got}"
