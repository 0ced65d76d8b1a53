"""Seeded runs are pinned to fixed digests, three per case.

Each case runs a small seeded class-incremental experiment. The first pin
hashes its report (canonical JSON, ``wall_clock_seconds`` dropped). A
refactor that keeps the random draws, their order and every float operation
leaves it unchanged; a change that moves any number must update the pins and
say which outputs moved and why. The digests were recorded with numpy 2.4
on OpenBLAS, with the MLP in float32; another BLAS build may round matrix
products differently.

The second pin hashes the same JSON with every float rounded to ten
significant digits. A change that only reorders float summation moves the
exact digest but not the rounded one, so the pair tells "only rounding
moved" apart from "a number moved".

The third pin covers what no report holds, the run's final state: the bytes
of the buffer's labels, stored losses and stored features, and of the
model's parameters. The tests reach that state by wrapping
``trainer.init_state``.

A change that removes a report or configuration key may add a table that
hashes the report with the key put back, holding the exact digests from
before the removal, to show that the removal moved no number. The next
change that re-pins deletes that table: once re-pinned, it no longer holds
the digests from before, and the key it puts back is either a constant or
derived from bytes that the three pins already hash.

One case runs the image path end to end: 28x28 IDX files that the test
writes, read by ``load_fashion_mnist``, split into tasks and trained with
shift and flip augmentation on the stream and on every replay draw.

Two more pins cover what no report reaches: the count matrices of the
buffer-balance study and the hash of the default configuration. A failing
pin prints the digests it got, so a re-pin reads the new values from the
failure message.

The last test runs the CLI at one and at two OpenBLAS threads and checks
that the outputs are the same bytes, apart from the wall-clock times.
"""

import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

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

# Per case: the exact and the rounded report digest, and the digest of
# the final buffer.labels, buffer.loss, buffer.features and model.params
# bytes, in that order.
PINS = {
    "reservoir": (
        "1fd281a993c7be0b7484eb2b7493e466d2fdd3c8655777e3b7fdb9076ed4b230",
        "a4d2f6485aa9f89f3fcb004bfcfda4bbcf51eff1bed1b7b08643f9823a150e7f",
        "dcbac0278b25ffae67d79e4e5629df87930a26b038cc4bb3da81eaa175116852"),
    "brs-cbic": (
        "c5c6a526e170080db8a048bdad17041c702195cf43269246b7f33c42bcbd2670",
        "982d7d33a4a3f9fb4066709c09f07aa9ef5cf30e1a928acb6d4a4b4c8bf08322",
        "6c9f806084ca4a4eeb4157569d9f34a19143c8968de215739a46bc60577d73e7"),
    "sgd-cbic": (
        "97e5b4b3a0be96a1d27f5440d4989127fa183da8bed08ecdd93435aa60f0a31a",
        "ec3350c2ae30230ea02a1db2c1c59b99755c40bbfcf68f8be00a0ff0075d26ce",
        "547b046245985e4be2ba1c3351c024a70ffae5d0d3f61443f6796ec76d8b5d67"),
    "lars-bic-elrd": (
        "281bb107bb4c2332dc5227fd17b342324490ba9c769b84bbfbe1dfec6c1ca733",
        "24d3a56f676fb3c04b03551decb14239fb2db6304fc62798918f63c1eb142b90",
        "ac32af721d38a070d9ee19bd88832b613062ae90a88feb4419518016bbd66ff3"),
    "iba-stream-aug": (
        "54bc757adf6481faed996a424b3cd528314ba17eff006f453702da628283b1a0",
        "c38c541bb731476d800654aca1fb18a363bf4f70a7bc006e4cb27e7a8150b547",
        "40d678783d8c3fef3485f64f4483e65d1fca6edcc52e03711a018c22296490b4"),
    IDX_CASE: (
        "52239359af071ab3c4ebd9cbd3188e44efb0fcc7830738dbea103deb70fc794e",
        "18a5c2298a222741ced08ba80f5a16c4b6a3f0efcc6e42aa6ce625643989f220",
        "b2638403b5ebfb11b8c5317a6bcb7997d2e9c41189ee17ef4a54768088243499"),
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
    got = (report_digest(report), report_digest(report, rounded), state_digest(state))
    assert got == PINS[case], f"exact, rounded and state digests of {case!r} are {got}"


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


def test_seeded_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, wall_clock_free):
    # 32-row batches through 256x256 layers are large enough for OpenBLAS to
    # split each product over two threads; at one thread the two seeds run
    # in two forked processes.
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("dataset = synthetic\nseeds = 0,1\nclasses_per_task = 2\n"
                   "buffer_capacity = 16\nreplay_batch_size = 16\nstream_batch_size = 16\n"
                   "hidden_dims = 256,256\nsynthetic.class_count = 4\n"
                   "synthetic.per_class = 32\nsynthetic.per_class_test = 16\n"
                   "synthetic.feature_dim = 8\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "replay_lab.cli", "run", "--config", str(cfg),
                        "--tricks", "bic,elrd,lars", "--out", str(out)],
                       env=env, capture_output=True, timeout=120, check=True)
        outputs.append(wall_clock_free(out))
        runs = outputs[-1]["runs.csv"].splitlines()
        assert runs[1].endswith(",average_accuracy") and len(runs) == 4
    assert outputs[0] == outputs[1]
