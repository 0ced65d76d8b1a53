"""Tests of the benchmark itself (not of replay_lab).

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import idx  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from replay_lab import datasets  # noqa: E402


def test_idx_writer_round_trips_its_own_arrays(tmp_path):
    idx.write_dataset(7, tmp_path)
    for split, (image_file, label_file) in idx.FILES.items():
        images, labels = idx.make_split(7, split)
        per_class = idx.TRAIN_PER_CLASS if split == "train" else idx.TEST_PER_CLASS
        assert images.shape == (idx.CLASSES * per_class, idx.SIDE, idx.SIDE)
        assert np.array_equal(np.bincount(labels), np.full(idx.CLASSES, per_class))
        raw = gzip.decompress((tmp_path / image_file).read_bytes())
        assert raw == datasets.to_idx_images(images / 255.0)
        parsed = datasets.parse_idx_images(datasets.read_idx_file(tmp_path / image_file))
        assert np.array_equal(parsed, images / 255.0)
        parsed = datasets.parse_idx_labels(datasets.read_idx_file(tmp_path / label_file))
        assert np.array_equal(parsed, labels)


def test_inputs_depend_on_the_seed_only():
    a, b, c = (idx.make_split(s, "test")[0] for s in (3, 3, 4))
    assert np.array_equal(a, b) and not np.array_equal(a, c)


def test_benchmark_json_lists_the_metrics_the_code_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced one-round runs of every workload on the same seed."""
    out = {}
    for name in ("lars-bic", "fmnist-iba", "balance-toy"):
        runs = []
        for i in range(2):
            work = tmp_path_factory.mktemp(f"{name}-{i}")
            assert workloads.WORKLOADS[name](5, work).prepare() == []
            runs.append(worker.run(name, 5, work, seconds=0.0, trace=True))
        out[name] = runs
    return out


@pytest.mark.parametrize("name", ["lars-bic", "fmnist-iba", "balance-toy"])
def test_span_self_times_account_for_the_traced_wall_time(traced, name):
    for result in traced[name]:
        assert result["problems"] == []
        for wall, spans in zip(result["round_wall_s"], result["round_span_s"]):
            assert spans == pytest.approx(wall, rel=0.01)
        assert all(result["per_layer"][m] >= 0 for m in tracing.PER_LAYER)


@pytest.mark.parametrize("name", ["lars-bic", "fmnist-iba", "balance-toy"])
def test_count_metrics_repeat_exactly_for_a_seed(traced, name):
    first, second = (r["per_layer"] for r in traced[name])
    counts = [m for m, unit in tracing.PER_LAYER.items() if unit in ("count", "GFLOP", "fraction")]
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}
    assert first["sampling.offers"] > 0
    if name == "balance-toy":
        assert first["mlp.forward_calls"] == 0 and first["trainer.steps"] == 0
    else:
        assert first["trainer.steps"] > 0 and first["bias_correction.fits"] > 0
    if name == "fmnist-iba":
        assert first["augmentation.items"] > 0 and first["datasets.load_s"] > 0
    assert traced[name][0]["avg_accuracy"] == traced[name][1]["avg_accuracy"]


def test_uninstall_restores_every_function():
    from replay_lab import cli, mlp, trainer
    before = (cli.main, trainer.er_train_step, mlp.Mlp.forward)
    tracing.install(cli).uninstall()
    assert (cli.main, trainer.er_train_step, mlp.Mlp.forward) == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "lars-bic",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
