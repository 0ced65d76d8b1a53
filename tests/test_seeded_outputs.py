"""Seeded runs are pinned to fixed report digests.

Each case runs a small seeded class-incremental experiment and hashes its
report (canonical JSON, ``wall_clock_seconds`` dropped). A refactor that
keeps the random draws, their order and every float operation leaves the
digests unchanged; a change that moves any number must update the table and
say which outputs moved and why. The digests were recorded with numpy 2.4
on OpenBLAS, with the MLP in float32; another BLAS build may round matrix
products differently.

A second table hashes the same JSON with every float rounded to ten
significant digits. A change that only reorders float summation moves the
exact digests but not the rounded ones, so the pair tells "only rounding
moved" apart from "a number moved". Two more tables hash the report with a
removed report key and a removed configuration key put back. When the keys
were removed, these were the digests from before, so dropping them moved no
number; they were re-pinned when the MLP moved from float64 to float32.

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

DIGESTS = {
    "reservoir":
        "1fd281a993c7be0b7484eb2b7493e466d2fdd3c8655777e3b7fdb9076ed4b230",
    "brs-cbic":
        "c5c6a526e170080db8a048bdad17041c702195cf43269246b7f33c42bcbd2670",
    "sgd-cbic":
        "97e5b4b3a0be96a1d27f5440d4989127fa183da8bed08ecdd93435aa60f0a31a",
    "lars-bic-elrd":
        "281bb107bb4c2332dc5227fd17b342324490ba9c769b84bbfbe1dfec6c1ca733",
    "iba-stream-aug":
        "54bc757adf6481faed996a424b3cd528314ba17eff006f453702da628283b1a0",
    IDX_CASE:
        "52239359af071ab3c4ebd9cbd3188e44efb0fcc7830738dbea103deb70fc794e",
}

ROUNDED_DIGESTS = {
    "reservoir":
        "a4d2f6485aa9f89f3fcb004bfcfda4bbcf51eff1bed1b7b08643f9823a150e7f",
    "brs-cbic":
        "982d7d33a4a3f9fb4066709c09f07aa9ef5cf30e1a928acb6d4a4b4c8bf08322",
    "sgd-cbic":
        "ec3350c2ae30230ea02a1db2c1c59b99755c40bbfcf68f8be00a0ff0075d26ce",
    "lars-bic-elrd":
        "24d3a56f676fb3c04b03551decb14239fb2db6304fc62798918f63c1eb142b90",
    "iba-stream-aug":
        "c38c541bb731476d800654aca1fb18a363bf4f70a7bc006e4cb27e7a8150b547",
    IDX_CASE:
        "18a5c2298a222741ced08ba80f5a16c4b6a3f0efcc6e42aa6ce625643989f220",
}

# The exact digests of the report with ``buffer_slot_audit`` put back: the
# dump rebuilt from the final buffer, one [slot, label, loss] triple per
# filled slot. Before the float32 re-pin, these were the digests from before
# the key left the report, so dropping it moved no number.
DIGESTS_WITH_SLOT_AUDIT = {
    "reservoir":
        "3cea39c341cf7503eaeaa00895b4af0373c64b351ec2378f7dc4e036b2bd739e",
    "brs-cbic":
        "699cd42f8dd07795828e2540521245ebe1a26789f424881371a2b346d32ab814",
    "sgd-cbic":
        "f749cca02012230160dc2e9f675f570b16f9ec490cb4a0d27f7c6a866a25e0f5",
    "lars-bic-elrd":
        "5143b2809ca898c408793d2fc62ebc61769539805ad283ad6615e4dce097dd82",
    "iba-stream-aug":
        "d49f644c4282f975678657de53623f02847f03374435d5f2a0f987fce29cdb23",
    IDX_CASE:
        "70b020342b1c0fe35f86be6f5f9833567aa5acda8d31a09c4259bfe376cabbe1",
}

# The exact digests of the report with ``decay_fraction`` put back in the
# configuration, at its one value 1/6, and with the dump put back. Before the
# float32 re-pin, these were the digests from before the key left.
DIGESTS_WITH_DECAY_FRACTION = {
    "reservoir":
        "815882ea21058dd757922d65f82079b4f7e27e20fb5d4903b3a97996f68cf948",
    "brs-cbic":
        "ed9c9438d94b236f6ce5523f45fe6ff96db8558eae62870a255fb850e4161884",
    "sgd-cbic":
        "52d2a04da59685eb5a115e233590ef14266abfaeb0e3e2f1a8246fb19896b219",
    "lars-bic-elrd":
        "ded1a5375b81c961b68fedc229fb40545342834a8220b9ec7b17d3b13c8cc80e",
    "iba-stream-aug":
        "5b2f7da2303c7af2de7074a702e0decd552bc4bbfb5909b91ea1c8a99e59cd0f",
    IDX_CASE:
        "ed5a2381b6f79d3295817cc27d9755c535f96eeb44922bf5d057626a89e76b87",
}

# sha256 of the final buffer.labels, buffer.loss, buffer.features and
# model.params bytes, in that order.
STATE_DIGESTS = {
    "reservoir":
        "dcbac0278b25ffae67d79e4e5629df87930a26b038cc4bb3da81eaa175116852",
    "brs-cbic":
        "6c9f806084ca4a4eeb4157569d9f34a19143c8968de215739a46bc60577d73e7",
    "sgd-cbic":
        "547b046245985e4be2ba1c3351c024a70ffae5d0d3f61443f6796ec76d8b5d67",
    "lars-bic-elrd":
        "ac32af721d38a070d9ee19bd88832b613062ae90a88feb4419518016bbd66ff3",
    "iba-stream-aug":
        "40d678783d8c3fef3485f64f4483e65d1fca6edcc52e03711a018c22296490b4",
    IDX_CASE:
        "b2638403b5ebfb11b8c5317a6bcb7997d2e9c41189ee17ef4a54768088243499",
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


def test_seeded_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
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
        report = [line for line in (out / "report.json").read_text().splitlines()
                  if '"wall_clock_seconds"' not in line]
        runs = [line.rsplit(",", 1)[0] for line in (out / "runs.csv").read_text().splitlines()]
        assert runs[1].endswith(",average_accuracy") and len(runs) == 4
        outputs.append((report, runs))
    assert outputs[0] == outputs[1]
