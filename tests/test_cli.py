"""Tests for the command-line surface: config parsing, outputs, exit codes."""

import argparse
import gzip
import json
import os
import subprocess
import sys
from collections import deque
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from replay_lab import cli, trainer
from replay_lab.cli import (CONFIG_KEYS, ConfigError, ExperimentConfig,
                            balance_toy, fifo_class_counts,
                            load_experiment_config, main,
                            monte_carlo_omission, parse_config_text,
                            train_config_from_experiment)
from replay_lab.datasets import to_idx_images, to_idx_labels
from replay_lab.evaluation import RunReport
from replay_lab.sampling import omission_probability
from replay_lab.trainer import TRICK_TOKENS, TrainConfig

TINY_CONFIG = """
# fast synthetic experiment
dataset = synthetic
seeds = 0,1
classes_per_task = 2
buffer_capacity = 12
replay_batch_size = 8
stream_batch_size = 5
hidden_dims = 8
lr0 = 0.1
synthetic.class_count = 4
synthetic.per_class = 30
synthetic.per_class_test = 10
synthetic.feature_dim = 8
synthetic.separation = 4.0
"""


def tiny_config(extra):
    """TINY_CONFIG with the ``key = value`` lines of ``extra`` in place of
    its own lines for those keys: a config file sets each key once."""
    keys = {line.partition("=")[0].strip() for line in extra.splitlines()}
    kept = [line for line in TINY_CONFIG.splitlines()
            if line.partition("=")[0].strip() not in keys]
    return "\n".join(kept) + "\n" + extra


def write_config(tmp_path, text=TINY_CONFIG, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv_rows(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    header = lines[1].split(",")
    return lines[0], header, [line.split(",") for line in lines[2:]]


class TestConfigParsing:
    def test_round_trips_values_and_comments(self):
        values = parse_config_text(TINY_CONFIG)
        assert values["seeds"] == (0, 1)
        assert values["hidden_dims"] == (8,)
        assert values["synthetic.separation"] == 4.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("buffersize = 10")

    @pytest.mark.parametrize("key", ["bias.epochs", "bias.batch_size", "bias.lr",
                                     "decay_fraction", "image_dims"])
    def test_removed_bias_fit_key_is_unknown(self, key):
        # the shift fit runs to convergence: it has no epochs, batch or step;
        # ELRD always ends at lr0 / 6, and the image dims are the dataset's
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            parse_config_text(f"{key} = 1")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("buffer_capacity = many")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some text")

    def test_key_set_twice_rejected_naming_both_lines(self, tmp_path, capsys):
        # the file's second value used to win silently
        text = "tricks = bic\nseeds = 0\ntricks = lars\n"
        with pytest.raises(ConfigError, match="^line 3: tricks is already set on line 1$"):
            parse_config_text(text)
        out = tmp_path / "o"
        assert main(["run", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        assert "config error: line 3: tricks is already set on line 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, key, first, later", [
        # a dotted key; blank and comment lines still count as lines
        ("synthetic.separation = 4.0\n# again\n\nsynthetic.separation = 5.0\n",
         "synthetic.separation", 1, 4),
        ("seeds = 0\nseeds = 0\n", "seeds", 1, 2),                     # the same value
        ("tricks=bic  # first\n   tricks   =   lars\n", "tricks", 1, 2),  # other spacing
    ])
    def test_key_set_twice_in_any_layout_rejected(self, text, key, first, later):
        with pytest.raises(ConfigError,
                           match=f"^line {later}: {key} is already set on line {first}$"):
            parse_config_text(text)

    def test_overrides_beat_file_beats_defaults(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_experiment_config(path, {"buffer_capacity": 99})
        assert cfg["buffer_capacity"] == 99          # override
        assert cfg["stream_batch_size"] == 5         # file
        assert cfg["epochs_per_task"] == 1           # default

    def test_exclusive_tricks_rejected(self, tmp_path):
        path = write_config(tmp_path, tiny_config("tricks = brs,lars\n"))
        with pytest.raises(ConfigError):
            load_experiment_config(path, {})

    def test_config_keys_reach_their_train_config_fields(self):
        assert train_config_from_experiment(load_experiment_config(None, {}), 0) == TrainConfig()
        # Fashion-MNIST's 28x28 images admit a shift; loading reads no data
        overrides = {"dataset": "fashion-mnist",
                     "buffer_capacity": 7, "replay_batch_size": 3, "stream_batch_size": 4,
                     "epochs_per_task": 2, "hidden_dims": (5, 6), "lr0": 0.3,
                     "tricks": ("iba", "cbic", "elrd"), "replay_enabled": False,
                     "aug.max_shift": 1, "aug.hflip_prob": 0.25, "aug.stream_enabled": True}
        got = train_config_from_experiment(load_experiment_config(None, overrides), 5)
        assert got == TrainConfig(
            buffer_capacity=7, replay_batch_size=3, stream_batch_size=4,
            epochs_per_task=2, hidden_dims=(5, 6), lr0=0.3,
            iba=True, cbic=True, elrd=True, replay_enabled=False, aug_max_shift=1, aug_hflip_prob=0.25,
            aug_stream_enabled=True, image_dims=(28, 28, 1), seed=5)
        # every field outside the unset tricks moved off its default
        unset = {"bic", "brs", "lars"}
        assert all(getattr(got, f.name) != getattr(TrainConfig(), f.name)
                   for f in fields(TrainConfig) if f.name not in unset)
        for trick in TRICK_TOKENS:
            cfg = load_experiment_config(None, {"tricks": (trick,)})
            assert train_config_from_experiment(cfg, 0).active_tricks() == (trick,)

    def test_readme_documents_exactly_the_config_keys(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("Keys and defaults:", 1)[1].split("```")[1]
        documented = [line.split("=")[0].strip() for line in block.splitlines()
                      if line.strip()]
        assert sorted(documented) == sorted(CONFIG_KEYS)

    def test_tricks_resolve_in_one_order_each_once(self, tmp_path):
        # the same configuration typed in another order, or with a repeat,
        # by flag or by config file, gets the same tricks and the same hash
        canonical = load_experiment_config(None, {"tricks": ("bic", "lars")})
        for text in ("lars,bic", "bic,lars,lars", " LARS , bic "):
            args = cli.build_parser().parse_args(["run", "--tricks", text])
            from_flag = load_experiment_config(None, cli._run_overrides(args))
            from_file = load_experiment_config(write_config(tmp_path, f"tricks = {text}\n"), {})
            for cfg in (from_flag, from_file):
                assert cfg["tricks"] == ("bic", "lars"), text
                assert cfg.config_hash() == canonical.config_hash(), text

    def test_hash_is_stable_and_value_sensitive(self):
        base = {k: default for k, (default, _) in CONFIG_KEYS.items()}
        a = ExperimentConfig(dict(base))
        b = ExperimentConfig(dict(base))
        assert a.config_hash() == b.config_hash()
        b.values["lr0"] = 0.2
        assert a.config_hash() != b.config_hash()


def test_readme_lists_exactly_the_modules():
    root = Path(__file__).parents[1]
    table = (root / "README.md").read_text().split("## What's inside", 1)[1].split("\n## ")[0]
    listed = [line.split("`")[1] for line in table.splitlines()
              if line.startswith("| `replay_lab.")]
    modules = [f"replay_lab.{p.stem}" for p in (root / "src" / "replay_lab").glob("*.py")
               if p.stem != "__init__"]
    assert sorted(listed) == sorted(modules)


def test_readme_lists_exactly_the_subcommands():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    row = next(line for line in readme.splitlines() if line.startswith("| `replay_lab.cli`"))
    listed = row.split("subcommands", 1)[1].split("`")[1::2]
    parser_subcommands = next(action.choices for action in cli.build_parser()._actions
                              if isinstance(action, argparse._SubParsersAction))
    assert sorted(listed) == sorted(parser_subcommands)


# The stdlib packages ``import replay_lab.cli`` loads on top of numpy: what
# replay_lab imports itself, plus copy and gettext, which dataclasses and
# argparse load. Forking runs adds none: benchmark set-up times include this
# import.
CLI_STDLIB_IMPORTS = {"argparse", "copy", "dataclasses", "gettext", "gzip", "hashlib", "json",
                      "traceback"}


def test_import_loads_no_process_pool_and_no_new_module():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, numpy; before = set(sys.modules); import replay_lab.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120, check=True)
    loaded = {m.split(".")[0] for m in done.stdout.split() if not m.startswith("_")}
    assert not loaded & {"multiprocessing", "concurrent"}
    assert loaded == CLI_STDLIB_IMPORTS | {"replay_lab"}


class TestCmdRun:
    def test_one_row_per_seed(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--seeds", "1,2,3",
                     "--out", str(out)]) == 0
        _, header, rows = read_csv_rows(out / "runs.csv")
        assert len(rows) == 3
        assert [r[header.index("seed")] for r in rows] == ["1", "2", "3"]
        report = json.loads((out / "report.json").read_text())
        assert len(report["runs"]) == 3

    def test_sgd_aliasing_with_zero_buffer_and_no_tricks(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--seeds", "0", "--buffer", "0",
                     "--tricks", "none", "--out", str(out)]) == 0
        _, header, rows = read_csv_rows(out / "runs.csv")
        assert rows[0][header.index("method")] == "sgd"
        assert rows[0][header.index("tricks")] == "none"

    def test_rows_carry_seed_and_config_hash(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--seeds", "0", "--out", str(out)])
        schema_line, header, rows = read_csv_rows(out / "runs.csv")
        assert "config_sha256=" in schema_line
        chash = rows[0][header.index("config_hash")]
        assert len(chash) == 64 and chash in schema_line

    def test_joint_method(self, tmp_path):
        cfg = write_config(tmp_path, tiny_config("method = joint\n"))
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--seeds", "0", "--out", str(out)]) == 0
        _, header, rows = read_csv_rows(out / "runs.csv")
        assert rows[0][header.index("method")] == "joint"


class TestDeterminism:
    def strip_wall_clock(self, out_dir):
        _, header, rows = read_csv_rows(out_dir / "runs.csv")
        idx = header.index("wall_clock_seconds")
        stripped_csv = [",".join(v for i, v in enumerate(row) if i != idx)
                        for row in rows]
        report = json.loads((out_dir / "report.json").read_text())
        for run in report["runs"]:
            run.pop("wall_clock_seconds")
        return stripped_csv, json.dumps(report, sort_keys=True)

    def test_rerun_is_identical_modulo_wall_clock(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", cfg, "--tricks", "bic,elrd,lars",
              "--out", str(out_a)])
        main(["run", "--config", cfg, "--tricks", "bic,elrd,lars",
              "--out", str(out_b)])
        assert self.strip_wall_clock(out_a) == self.strip_wall_clock(out_b)

    @pytest.mark.parametrize("argv, owner, name, processes", [
        (["run", "--config", "{joint}", "--seeds", "0,1"], cli, "run_joint_baseline", 2),
        (["run", "--config", "{cfg}", "--seeds", "0,1,2"], cli, "run_class_il", 3),
        (["ablation", "--config", "{cfg}", "--seeds", "0,1"], trainer, "run_class_il", 2),
        (["balance-toy", "--repetitions", "5", "--seed", "4"], cli, "balance_repetition", 2),
        (["balance-toy", "--repetitions", "3", "--seed", "4"], cli, "balance_repetition", 3),
    ], ids=["joint", "three-seeds", "ablation", "balance-toy", "three-repetitions"])
    def test_forked_runs_write_the_serial_bytes(self, tmp_path, two_processes,
                                                argv, owner, name, processes):
        cfg = write_config(tmp_path)
        joint = write_config(tmp_path, tiny_config("method = joint\n"), "joint.cfg")
        argv = [a.format(cfg=cfg, joint=joint) for a in argv]
        outputs = []
        for out in (tmp_path / "serial", tmp_path / "forked"):
            if out.name == "forked":
                forks = two_processes(owner, name)
            assert main(argv + ["--out", str(out)]) == 0
            if argv[0] == "run":
                outputs.append(self.strip_wall_clock(out))
            elif argv[0] == "ablation":
                report = (out / "ablation.json").read_text().splitlines()
                outputs.append(((out / "ablation.csv").read_text(),
                                [line for line in report if '"wall_clock_seconds"' not in line]))
            else:
                outputs.append(((out / "balance.csv").read_bytes(),
                                (out / "balance.json").read_bytes()))
        assert outputs[0] == outputs[1]
        assert len(forks.forked) == processes - 1 and len(forks.callers()) == processes


class TestCmdAblation:
    def test_row_count_and_monotone_audit(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["ablation", "--config", cfg, "--seeds", "0",
                     "--out", str(out)]) == 0
        _, header, rows = read_csv_rows(out / "ablation.csv")
        assert [r[header.index("label")] for r in rows] == \
               ["er", "+bic", "+elrd", "+brs", "+lars"]
        payload = json.loads((out / "ablation.json").read_text())
        assert len(payload["rows"]) == 5

    def test_base_strategy_is_an_unknown_key_before_any_data_is_read(self, tmp_path,
                                                                     monkeypatch, capsys):
        # training always uses a reservoir buffer; `ring` is left to balance-toy
        def no_data(cfg):
            pytest.fail("data was read before the config was checked")
        monkeypatch.setattr(cli, "build_task_stream", no_data)
        cfg = write_config(tmp_path, tiny_config("base_strategy = ring\n"))
        out = tmp_path / "out"
        assert main(["ablation", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "unknown config key 'base_strategy'" in err
        assert not out.exists()

    @pytest.mark.parametrize("setting, flags, line", [
        ("replay_enabled = false\n", [], "replay_enabled = false"),
        ("", ["--buffer", "0"], "buffer_capacity = 0"),
        ("method = joint\n", [], "method = joint"),
    ], ids=["replay_enabled", "buffer", "method"])
    def test_setting_that_runs_no_replay_is_2_before_any_data_is_read(
            self, tmp_path, monkeypatch, capsys, setting, flags, line):
        # each row would be an SGD or a plain class-IL run under an `er` label
        monkeypatch.setattr(cli, "build_task_stream",
                            lambda cfg: pytest.fail("data was read before the check"))
        cfg = write_config(tmp_path, tiny_config(setting))
        out = tmp_path / "out"
        assert main(["ablation", "--config", cfg, *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: ablation runs experience replay, so it cannot take {line}\n"
        assert not out.exists()


def test_run_and_ablation_write_the_v2_schema_without_the_slot_dump(tmp_path):
    cfg = write_config(tmp_path)
    run_out, ablation_out = tmp_path / "run", tmp_path / "ablation"
    assert main(["run", "--config", cfg, "--out", str(run_out)]) == 0
    assert main(["ablation", "--config", cfg, "--seeds", "0", "--out", str(ablation_out)]) == 0
    report = json.loads((run_out / "report.json").read_text())
    ablation = json.loads((ablation_out / "ablation.json").read_text())
    for csv, schema, payload in (
            (run_out / "runs.csv", "replay-lab-runs-v2", report),
            (ablation_out / "ablation.csv", "replay-lab-ablation-v2", ablation)):
        schema_line, _, _ = read_csv_rows(csv)
        assert schema_line.startswith(f"# {schema} config_sha256=")
        assert payload["schema"] == schema
    runs = report["runs"] + [run for row in ablation["rows"] for run in row["runs"]]
    assert len(runs) == 2 + 5
    assert not any("buffer_slot_audit" in run for run in runs)


def test_readme_lists_exactly_the_report_keys():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("Each run's report has these keys:", 1)[1].split("\n\n")[1]
    listed = [line.split("`")[1] for line in table.splitlines()[2:]]
    assert listed == [f.name for f in fields(RunReport)]


class TestCmdBalanceToy:
    def test_ring_is_exactly_balanced(self, tmp_path):
        out = tmp_path / "out"
        assert main(["balance-toy", "--repetitions", "20", "--seed", "3",
                     "--out", str(out)]) == 0
        payload = json.loads((out / "balance.json").read_text())
        ring = payload["strategies"]["ring"]
        assert ring["mse_mean"] == 0.0
        assert ring["mean_counts"] == [2.0] * 6

    def test_balance_ordering_brs_below_reservoir(self):
        counts = balance_toy(repetitions=60, seed=1)
        mse = {s: float(((m - 2.0) ** 2).mean()) for s, m in counts.items()}
        assert mse["brs"] < mse["reservoir"]

    def test_no_repetitions_give_empty_matrices(self):
        counts = balance_toy(repetitions=0, seed=2)
        assert list(counts) == [*cli.TOY_STRATEGIES, "ring"]
        for mat in counts.values():
            assert mat.shape == (0, cli.TOY_CLASS_COUNT) and mat.dtype == np.float64


def fifo_by_reference(labels, capacity, class_count):
    """A class-wise FIFO run item by item: each class owns
    ``capacity // class_count`` slots and keeps the newest items that fit.
    Returns each class's kept stream positions, oldest first."""
    segment = capacity // class_count
    kept = [deque(maxlen=segment) for _ in range(class_count)]
    for position, label in enumerate(labels):
        if segment:
            kept[label].append(position)
    return [list(k) for k in kept]


def seeded_labels(n, class_count, seed):
    return np.random.default_rng(seed).integers(0, class_count, size=n)


class TestClassWiseFifo:
    """balance-toy's ``ring`` row: the final counts of a class-wise FIFO,
    read from the stream instead of streamed through a buffer."""

    @pytest.mark.parametrize("capacity, class_count, labels", [
        (10, 5, [0, 0, 0]),                      # a segment keeps the newest two
        (10, 5, [0, 1, 2, 3, 4]),                # one item per class
        (6, 3, [0, 1, 0, 0, 2, 0, 1]),           # class 2 leaves a slot empty
        (13, 4, seeded_labels(200, 4, 6)),       # slot 12 is never used
        (100, 10, [i % 2 for i in range(400)]),  # two classes of ten seen
        (8, 3, seeded_labels(60, 3, 0)),
        (3, 4, seeded_labels(65, 4, 1)),         # fewer slots than classes
        (0, 3, seeded_labels(13, 3, 2)),         # no-rehearsal buffer
        (2, 5, seeded_labels(16, 5, 3)),
        (6, 2, seeded_labels(8, 2, 4)),
    ])
    def test_counts_match_the_fifo_run_item_by_item(self, capacity, class_count, labels):
        kept = fifo_by_reference(labels, capacity, class_count)
        counts = fifo_class_counts(np.asarray(labels), capacity, class_count)
        assert counts.tolist() == [len(k) for k in kept]
        assert counts.sum() <= capacity

    def test_each_class_keeps_its_newest_items(self):
        labels = [0, 1, 0, 0, 2, 0, 1]
        assert fifo_by_reference(labels, 6, 3) == [[3, 5], [1, 6], [4]]
        assert fifo_class_counts(np.asarray(labels), 6, 3).tolist() == [2, 2, 1]

    def test_underexploitation_after_first_task(self):
        # 2 classes of a 10-class protocol seen: at least 3/5 of the buffer
        # stays empty, where a reservoir buffer would be full
        counts = fifo_class_counts(np.arange(400) % 2, 100, 10)
        assert counts.tolist() == [10, 10] + [0] * 8
        assert (100 - counts.sum()) / 100 >= 3 / 5


class TestCmdOmission:
    def test_analytic_values_and_monte_carlo_agreement(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["omission", "--classes", "10", "--capacity", "10",
                     "--trials", "100000", "--out", str(out)]) == 0
        payload = json.loads((out / "omission.json").read_text())
        assert payload["analytic"] == pytest.approx(0.3487, abs=5e-5)
        assert abs(payload["analytic"] - payload["monte_carlo"]) <= 0.01

    def test_single_class_is_never_omitted(self, capsys):
        assert main(["omission", "--classes", "1", "--capacity", "5"]) == 0
        assert "analytic=0.000000" in capsys.readouterr().out

    def test_vectorized_estimator_matches_closed_form(self):
        for c, b in [(2, 2), (4, 6), (10, 10)]:
            mc = monte_carlo_omission(c, b, trials=200_000, seed=5)
            assert abs(mc - omission_probability(c, b)) <= 0.01

    def test_matches_a_per_class_loop_over_one_block(self):
        # the draws do not depend on the block split: 5000 classes give blocks
        # of 2000 trials, while the reference draws all 5001 trials at once
        for c, b, trials in [(10, 10, 5000), (5000, 3, 5001)]:
            rng = np.random.default_rng(np.random.SeedSequence([7, c, b]))
            draws = rng.integers(0, c, size=(trials, b))
            absent = sum(int(np.sum(~np.any(draws == k, axis=1))) for k in range(c))
            assert monte_carlo_omission(c, b, trials, seed=7) == absent / c / trials


class TestCmdGradcheck:
    def test_passes_and_exits_zero(self, capsys):
        assert main(["gradcheck", "--seed", "0", "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert "gradcheck: PASS" in out
        assert "corrupted backward rejected: yes" in out

    @pytest.mark.parametrize("seed", [2, 32, 10, 15])
    def test_nets_near_the_relu_kink_are_drawn_again(self, seed):
        # each seed draws a net with a hidden pre-activation closer to the
        # kink than FD_STEP, where the central difference straddles the kink
        # and a correct backward fails: 2 and 32 under the one-stream recipe
        # of dims 3-8 that gradcheck once used, 10 and 15 under this recipe
        assert main(["gradcheck", "--seed", str(seed), "--trials", "20"]) == 0


class TestFashionMnistPath:
    def write_idx_dataset(self, data_dir, n_train=200, n_test=60):
        # ten distinguishable template classes rendered as 28x28 images
        import struct
        rng = np.random.default_rng(0)
        templates = rng.integers(0, 2, size=(10, 784)) * 200

        def images_bytes(labels):
            pix = np.clip(templates[labels]
                          + rng.integers(0, 40, size=(len(labels), 784)), 0, 255)
            header = struct.pack(">IIII", 0x00000803, len(labels), 28, 28)
            return header + pix.astype(np.uint8).tobytes()

        def labels_bytes(labels):
            header = struct.pack(">II", 0x00000801, len(labels))
            return header + labels.astype(np.uint8).tobytes()

        y_train = np.tile(np.arange(10), n_train // 10)
        y_test = np.tile(np.arange(10), n_test // 10)
        (data_dir / "train-images-idx3-ubyte").write_bytes(images_bytes(y_train))
        (data_dir / "train-labels-idx1-ubyte").write_bytes(labels_bytes(y_train))
        (data_dir / "t10k-images-idx3-ubyte").write_bytes(images_bytes(y_test))
        (data_dir / "t10k-labels-idx1-ubyte").write_bytes(labels_bytes(y_test))

    def run_idx_pipeline(self, tmp_path, monkeypatch, tricks, extra_config=""):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        self.write_idx_dataset(data_dir)
        monkeypatch.setenv("REPLAYLAB_DATA", str(data_dir))
        cfg = write_config(tmp_path, tiny_config("hidden_dims = 16\n" + extra_config))
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--dataset", "fashion-mnist",
                     "--seeds", "0", "--tricks", tricks, "--out", str(out)]) == 0
        _, header, rows = read_csv_rows(out / "runs.csv")
        assert len(rows) == 1
        # five tasks of two classes each
        assert sum(h.startswith("acc_task_") for h in header) == 5
        report = json.loads((out / "report.json").read_text())
        assert report["runs"][0]["config"]["image_dims"] == [28, 28, 1]
        return report["runs"][0]["config"]

    def test_full_pipeline_over_idx_files(self, tmp_path, monkeypatch):
        self.run_idx_pipeline(tmp_path, monkeypatch, "bic")

    def test_iba_with_shift_and_flip_over_idx_files(self, tmp_path, monkeypatch):
        config = self.run_idx_pipeline(
            tmp_path, monkeypatch, "iba,bic",
            "aug.stream_enabled = true\naug.max_shift = 2\naug.hflip_prob = 0.5\n")
        assert config["iba"] is True


def _truncated_gzip(blob: bytes) -> bytes:
    packed = gzip.compress(blob, mtime=0)
    return packed[:len(packed) // 2]


def _zero_crc_gzip(blob: bytes) -> bytes:
    # a gzip stream ends with the CRC-32 of its content, then its length
    packed = gzip.compress(blob, mtime=0)
    return packed[:-8] + bytes(4) + packed[-4:]


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("no_such_key = 1\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_config_file_that_is_not_utf8_is_2_and_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"seeds = 0\n\xff\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cannot read config file {bad}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("encoding, code", [("utf-8", 0), ("latin-1", 2)])
    def test_config_file_is_read_as_utf8_under_an_ascii_locale(self, tmp_path, encoding, code):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(tiny_config("seeds = 0\n# café\n").encode(encoding))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, LC_ALL="POSIX", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "replay_lab.cli", "run", "--config", str(cfg),
                               "--out", str(tmp_path / "o")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == code, done.stderr
        if code:
            assert f"cannot read config file {cfg}" in done.stderr

    def test_unknown_trick_is_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["run", "--config", cfg, "--tricks", "magic",
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("flag", [["--seeds", "x"], ["--seeds", "0,a"],
                                      ["--buffer", "many"]], ids=" ".join)
    def test_bad_run_flag_is_2_like_a_bad_config_line(self, tmp_path, capsys, flag):
        cfg = write_config(tmp_path)
        assert main(["run", "--config", cfg, *flag, "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["omission", "--classes", "0", "--capacity", "5"],
        ["omission", "--classes", "4", "--capacity", "-1"],
        ["omission", "--classes", "4", "--capacity", "5", "--trials", "0"],
        ["omission", "--classes", "4", "--capacity", "5", "--trials", "-4"],
        ["omission", "--classes", "4", "--capacity", "5", "--seed", "-1"],
        ["balance-toy", "--repetitions", "0"],
        ["balance-toy", "--repetitions", "-1"],
        ["balance-toy", "--seed", "-1"],
        ["gradcheck", "--trials", "0"],
        ["gradcheck", "--trials", "-3"],
        ["gradcheck", "--seed", "-1"],
    ], ids=" ".join)
    def test_bad_count_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_missing_data_dir_is_3(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPLAYLAB_DATA", raising=False)
        cfg = write_config(tmp_path)
        assert main(["run", "--config", cfg, "--dataset", "fashion-mnist",
                     "--out", str(tmp_path / "o")]) == 3

    # case -> (image side, train labels, test labels, expected message) of the
    # four IDX files; a case in DAMAGED_FILE then replaces one of them
    CORRUPT_DATA = {
        "garbage": (28, np.arange(20) % 10, np.arange(10),
                    "train-images-idx3-ubyte: bad magic"),
        "truncated gzip": (28, np.arange(20) % 10, np.arange(10),
                           "train-labels-idx1-ubyte.gz: damaged gzip data"),
        "gzip checksum": (28, np.arange(20) % 10, np.arange(10),
                          "t10k-images-idx3-ubyte.gz: damaged gzip data"),
        "8x8 images": (8, np.arange(20) % 10, np.arange(10),
                       "train-images-idx3-ubyte: images are 8x8, expected 28x28"),
        "labels 10 and 11": (28, np.arange(22) % 12, np.arange(10),
                             "train-labels-idx1-ubyte: label 10 at offset 18"),
        "no class 9 in the test split": (28, np.arange(20) % 10, np.arange(10) % 9,
                                         "t10k-labels-idx1-ubyte: no item of class 9"),
    }

    # case -> (file, function from its IDX bytes to the bytes of its damaged
    # ``.gz`` or plain replacement)
    DAMAGED_FILE = {
        "garbage": ("train-images-idx3-ubyte", lambda blob: b"garbage"),
        "truncated gzip": ("train-labels-idx1-ubyte.gz", _truncated_gzip),
        "gzip checksum": ("t10k-images-idx3-ubyte.gz", _zero_crc_gzip),
    }

    @pytest.mark.parametrize("case", CORRUPT_DATA)
    def test_corrupt_data_file_is_3(self, tmp_path, monkeypatch, capsys, case):
        side, train_labels, test_labels, message = self.CORRUPT_DATA[case]
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        for prefix, labels in (("train", train_labels), ("t10k", test_labels)):
            images = np.zeros((len(labels), side, side))
            (data_dir / f"{prefix}-images-idx3-ubyte").write_bytes(to_idx_images(images))
            (data_dir / f"{prefix}-labels-idx1-ubyte").write_bytes(to_idx_labels(labels))
        if case in self.DAMAGED_FILE:
            name, damage = self.DAMAGED_FILE[case]
            plain = data_dir / name.removesuffix(".gz")
            blob = plain.read_bytes()
            plain.unlink()
            (data_dir / name).write_bytes(damage(blob))
        monkeypatch.setenv("REPLAYLAB_DATA", str(data_dir))
        cfg = write_config(tmp_path)
        assert main(["run", "--config", cfg, "--dataset", "fashion-mnist",
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and message in err

    @pytest.mark.parametrize("processes", [1, 2])
    def test_runtime_failure_is_4(self, tmp_path, monkeypatch, capsys, two_processes,
                                  processes):
        # an unexpected exception during training exits 4 with its traceback
        def fail(*args, **kwargs):
            raise RuntimeError("training broke")
        monkeypatch.setattr(cli, "run_class_il", fail)
        if processes == 2:
            forks = two_processes(cli, "run_class_il")
        cfg = write_config(tmp_path)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: training broke" in err
        assert processes == 1 or len(forks.forked) == 1

    @pytest.mark.parametrize("seeds, processes", [
        pytest.param("0,1", 2, id="0,1"),
        pytest.param("0,1,2", 3, id="0,1,2"),
        pytest.param("0,1,2,3,4", 2, id="0,1,2,3,4"),
    ])
    @pytest.mark.parametrize("error", [FloatingPointError, RuntimeError])
    def test_failure_in_a_forked_share_is_4_with_that_runs_message(
            self, tmp_path, monkeypatch, capsys, two_processes, seeds, processes, error):
        # seed 1 fails, and only in a forked process. Seed 2 fails too: in a
        # process of its own with seeds 0,1,2, and with seeds 0,1,2,3,4 in
        # this process, which stops there while the forked one fails on the
        # earlier seed 1. A serial loop would stop at seed 1.
        test_pid, run = os.getpid(), cli.run_class_il

        def fail_from_seed_1(stream, config):
            if config.seed == 2 or (config.seed == 1 and os.getpid() != test_pid):
                raise error(f"seed {config.seed} broke")
            return run(stream, config)
        monkeypatch.setattr(cli, "run_class_il", fail_from_seed_1)
        forks = two_processes(cli, "run_class_il")
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--seeds", seeds, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        if error is FloatingPointError:
            assert err == "runtime error: seed 1 broke\n"
        else:
            assert "in a worker process" in err and err.endswith("RuntimeError: seed 1 broke\n")
        assert len(forks.forked) == processes - 1 and len(forks.callers()) == processes
        assert not (out / "report.json").exists()

    def test_balance_repetition_failing_in_a_forked_share_is_4_with_its_message(
            self, tmp_path, monkeypatch, capsys, two_processes):
        # repetition 1 fails, and only in the forked process
        test_pid, repetition = os.getpid(), cli.balance_repetition

        def fail_at_1(seed, rep):
            if rep == 1 and os.getpid() != test_pid:
                raise RuntimeError(f"repetition {rep} broke")
            return repetition(seed, rep)
        monkeypatch.setattr(cli, "balance_repetition", fail_at_1)
        forks = two_processes(cli, "balance_repetition")
        out = tmp_path / "o"
        assert main(["balance-toy", "--repetitions", "4", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "in a worker process" in err and err.endswith("RuntimeError: repetition 1 broke\n")
        assert len(forks.forked) == 1 and len(forks.callers()) == 2
        assert not (out / "balance.json").exists()

    def test_forked_process_that_exits_without_its_runs_is_4(self, tmp_path, monkeypatch,
                                                              capsys, two_processes):
        test_pid = os.getpid()

        def exit_if_forked(stream, config):
            if os.getpid() != test_pid:
                os._exit(9)
        monkeypatch.setattr(cli, "run_class_il", exit_if_forked)
        forks = two_processes(cli, "run_class_il")
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"RuntimeError: worker process 1 (pid {forks.forked[0]}) exited with status 9 " \
               "without sending its results" in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("setting", [
        "classes_per_task = 0",
        "classes_per_task = 3",
        "classes_per_task = -2",
        "synthetic.class_count = 0",
        "synthetic.class_count = 3",
        "synthetic.per_class = 0",
        "synthetic.per_class_test = 0",
        "synthetic.feature_dim = 0",
        "synthetic.seed = -1",
        "hidden_dims = 0",
        "hidden_dims = 8,0",
        "seeds = 0,-1",
        "tricks = bic\nbias.epochs = 50",
        "tricks = bic\nbias.batch_size = 32",
        "tricks = bic\nbias.lr = 0.01",
        "lr0 = nan",
        "lr0 = inf",
        "synthetic.separation = nan",
        "synthetic.separation = inf",
        "aug.max_shift = 9",
        "aug.max_shift = -1",
        "aug.hflip_prob = 2",
        "tricks = iba\nimage_dims = 3,3,1",
        "image_dims = 3,3,1",
        "image_dims = 8",
        "aug.stream_enabled = maybe",
        "dataset = cifar10",
        "method = ewc",
        "seeds = none",
        "buffer_capacity = -1",
        "replay_batch_size = 0",
        "stream_batch_size = 0",
        "epochs_per_task = 0",
    ])
    def test_bad_setting_is_2_before_any_data_is_read(self, tmp_path, monkeypatch, setting):
        def no_data(cfg):
            pytest.fail("data was read before the config was checked")
        monkeypatch.setattr(cli, "build_task_stream", no_data)
        cfg = write_config(tmp_path, tiny_config(setting + "\n"))
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "runs.csv").exists()

    @pytest.mark.parametrize("separation", ["1e308", "-1e308"])
    def test_separation_that_overflows_the_generator_is_2(self, tmp_path, monkeypatch,
                                                          capsys, separation):
        # 4 classes on 1 axis put the last class mean at 4 * separation = inf,
        # which the generator would turn into NaN features
        monkeypatch.setattr(cli, "build_task_stream",
                            lambda cfg: pytest.fail("data was read before the check"))
        cfg = write_config(tmp_path, tiny_config("synthetic.feature_dim = 1\n"
                                                 f"synthetic.separation = {separation}\n"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error: synthetic.separation" in capsys.readouterr().err

    def test_off_and_none_values_are_accepted(self, tmp_path):
        cfg = write_config(tmp_path, tiny_config("aug.stream_enabled = off\n"
                                                 "hidden_dims = none\n"))
        train_cfg = train_config_from_experiment(load_experiment_config(cfg, {}), 0)
        assert train_cfg.aug_stream_enabled is False and train_cfg.hidden_dims == ()

    @pytest.mark.parametrize("argv", [
        ["run", "--config", "{cfg}"],
        ["ablation", "--config", "{cfg}", "--seeds", "0"],
        ["balance-toy", "--repetitions", "1"],
        ["omission", "--classes", "2", "--capacity", "1", "--trials", "1"],
    ], ids=["run", "ablation", "balance-toy", "omission"])
    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_output_directory_that_cannot_be_made_is_2(self, tmp_path, capsys, argv, out):
        cfg = write_config(tmp_path)
        (tmp_path / "file").write_text("not a directory\n")
        argv = [a.format(cfg=cfg) for a in argv] + ["--out", str(tmp_path / out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create output directory {tmp_path / out}: ")
        assert "Traceback" not in err
        assert (tmp_path / "file").read_text() == "not a directory\n"

    def test_separation_with_a_finite_largest_mean_is_accepted(self, tmp_path):
        # 4 classes on 8 axes: the largest class mean is separation itself
        cfg = write_config(tmp_path, tiny_config("synthetic.separation = 1e308\n"))
        assert load_experiment_config(cfg, {})["synthetic.separation"] == 1e308

    def test_bad_run_setting_is_2_even_without_data(self, tmp_path, monkeypatch):
        # the config error wins over the missing Fashion-MNIST data
        monkeypatch.delenv("REPLAYLAB_DATA", raising=False)
        cfg = write_config(tmp_path, tiny_config("lr0 = -1\n"))
        assert main(["run", "--config", cfg, "--dataset", "fashion-mnist",
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("processes", [1, 2])
    def test_non_finite_loss_is_4_and_names_task_and_step(self, tmp_path, capsys,
                                                          two_processes, processes):
        # lr0 = 1e4 blows the float32 weights up: both losses are NaN at step
        # 4 of task 0 (lr0 = 1e30 overflows float32 already at step 1)
        if processes == 2:
            forks = two_processes(cli, "run_class_il")
        cfg = write_config(tmp_path, "lr0 = 1e4\n")
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--tricks", "bic,elrd,lars", "--seeds", "0,1",
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "task 0, step 4" in err
        assert not (out / "report.json").exists()
        assert processes == 1 or len(forks.forked) == 1
