"""The benchmark's workloads: their inputs, one round of work, and the checks
on what each round wrote.

A round is one ``replay-lab`` command, run in-process through
``replay_lab.cli.main``. Every round of a run repeats the same command on
the same inputs, so its outputs and counts repeat exactly. The inputs are
made from the benchmark seed; the program sees only the files and flags.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import idx

# Balance study: reservoir sampling keeps a uniform 12-subset of the 1020
# items, so each class count is hypergeometric with this variance, which is
# also the expected per-repetition MSE around the ideal count of 2.
TOY_CAPACITY, TOY_CLASSES, TOY_PER_CLASS = 12, 6, 170
TOY_REPETITIONS = 200
_N = TOY_CLASSES * TOY_PER_CLASS
RESERVOIR_MSE = TOY_CAPACITY * (1 / TOY_CLASSES) * (1 - 1 / TOY_CLASSES) \
    * (_N - TOY_CAPACITY) / (_N - 1)

# A classifier that predicts only the last task's classes scores 1/5.
MIN_ACCURACY = 0.3


class Workload:
    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.out = work / "out"

    def prepare(self) -> list[str]:
        """Write the inputs, before any timing; return problems found."""
        self.work.mkdir(parents=True, exist_ok=True)
        return []

    def check_inputs(self) -> list[str]:
        """Problems with the set-up state, found after timing set-up."""
        return []


class Training(Workload):
    """``replay-lab run`` over a fixed list of seeds on one task stream."""

    n_seeds = 1
    config = ""

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.seeds = [seed * 100 + i for i in range(self.n_seeds)]
        self.config_path = work / "config.txt"

    def prepare(self) -> list[str]:
        problems = super().prepare()
        self.config_path.write_text(
            self.config.format(seed=self.seed, data=self.work / "data")
            + f"seeds = {','.join(map(str, self.seeds))}\n")
        return problems

    def argv(self) -> list[str]:
        return ["run", "--config", str(self.config_path), "--out", str(self.out)]

    def setup(self, cli) -> None:
        """Parse the config, build the task stream and one initial state."""
        from replay_lab.trainer import init_state
        self.cfg = cli.load_experiment_config(str(self.config_path), {})
        self.stream = cli.build_task_stream(self.cfg)
        init_state(self.stream, cli.train_config_from_experiment(self.cfg, self.seeds[0]))

    def reuse_setup(self, cli) -> None:
        """Make every round reuse the stream built in ``setup``."""
        built, chash = self.stream, self.cfg.config_hash()

        def build_task_stream(cfg):
            if cfg.config_hash() != chash:
                raise ValueError("round config differs from the set-up config")
            return built
        cli.build_task_stream = build_task_stream

    @property
    def ops_per_round(self) -> int:
        return len(self.seeds)

    @property
    def examples_per_round(self) -> int:
        per_seed = sum(len(t.train_labels) for t in self.stream.tasks)
        return per_seed * self.cfg["epochs_per_task"] * len(self.seeds)

    def check_round(self) -> tuple[float, list[str]]:
        """(mean average accuracy, problems) of the outputs just written."""
        report = json.loads((self.out / "report.json").read_text())
        runs = report["runs"]
        with open(self.out / "runs.csv", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        problems = []
        if [r["seed"] for r in runs] != self.seeds or len(rows) != len(runs):
            problems.append(f"runs for seeds {[r['seed'] for r in runs]}, want {self.seeds}")
            return 0.0, problems
        capacity = self.cfg["buffer_capacity"]
        classes = self.stream.class_count
        examples = self.examples_per_round // len(self.seeds)
        for run, row in zip(runs, rows):
            tag = f"seed {run['seed']}"
            if run["examples_seen"] != examples:
                problems.append(f"{tag}: examples_seen {run['examples_seen']} != {examples}")
            counts = np.array([run["buffer_class_counts"].get(str(c), 0) for c in range(classes)])
            if counts.sum() != capacity:
                problems.append(f"{tag}: buffer holds {counts.sum()} items, capacity {capacity}")
            mse = float(np.mean((counts - capacity / classes) ** 2))
            if not math.isclose(run["buffer_balance_mse"], mse, rel_tol=1e-12, abs_tol=1e-12):
                problems.append(f"{tag}: buffer_balance_mse {run['buffer_balance_mse']} != {mse}")
            acc, per_task = run["average_accuracy"], run["per_task_accuracy"]
            if not math.isclose(acc, sum(per_task) / len(per_task), rel_tol=1e-12):
                problems.append(f"{tag}: average {acc} is not the mean of {per_task}")
            if not math.isclose(float(row["average_accuracy"]), acc, rel_tol=1e-11):
                problems.append(f"{tag}: runs.csv accuracy {row['average_accuracy']} != {acc}")
            if acc <= MIN_ACCURACY:
                problems.append(f"{tag}: accuracy {acc} not above {MIN_ACCURACY}")
            for key in ("task_pred_distribution", "task_pred_distribution_raw"):
                if not math.isclose(sum(run[key]), 1.0, rel_tol=1e-9):
                    problems.append(f"{tag}: {key} sums to {sum(run[key])}")
        return sum(r["average_accuracy"] for r in runs) / len(runs), problems


class LarsBic(Training):
    n_seeds = 12
    config = ("tricks = bic,elrd,lars\n"
              "buffer_capacity = 500\n"
              "hidden_dims = 256,256\n"
              "synthetic.seed = {seed}\n")


class FmnistIba(Training):
    n_seeds = 3
    config = ("dataset = fashion-mnist\n"
              "data_dir = {data}\n"
              "tricks = iba,bic,elrd\n"
              "aug.max_shift = 2\n"
              "aug.hflip_prob = 0.5\n"
              "aug.stream_enabled = true\n"
              "synthetic.seed = {seed}\n")

    def prepare(self) -> list[str]:
        """Also write the IDX files, and check that the program's parser
        returns exactly the generated arrays. This runs in the parent
        process, so the workload's peak memory does not include it."""
        from replay_lab import datasets
        problems = super().prepare()
        data = self.work / "data"
        for split, arrays in idx.write_dataset(self.seed, data).items():
            images, labels = arrays
            names = idx.FILES[split]
            got_images = datasets.parse_idx_images(datasets.read_idx_file(data / names[0]))
            got_labels = datasets.parse_idx_labels(datasets.read_idx_file(data / names[1]))
            if not np.array_equal(got_images, images / 255.0):
                problems.append(f"{split} images do not round-trip")
            if not np.array_equal(got_labels, labels):
                problems.append(f"{split} labels do not round-trip")
        return problems

    def check_inputs(self) -> list[str]:
        """The task split must keep every image."""
        problems = []
        for split, per_class in (("train", idx.TRAIN_PER_CLASS), ("test", idx.TEST_PER_CLASS)):
            kept = sum(len(getattr(t, f"{split}_labels")) for t in self.stream.tasks)
            if kept != idx.CLASSES * per_class:
                problems.append(f"task split keeps {kept} of {idx.CLASSES * per_class} "
                                f"{split} images")
        return problems


class BalanceToy(Workload):
    """``replay-lab balance-toy``: four buffers of 12 slots fed 6 x 170 labels."""

    counts = None

    def argv(self) -> list[str]:
        return ["balance-toy", "--repetitions", str(TOY_REPETITIONS),
                "--seed", str(self.seed), "--out", str(self.out)]

    def setup(self, cli) -> None:
        """Parse the command line and build one empty buffer per strategy."""
        from replay_lab.sampling import ReplayBuffer
        cli.build_parser().parse_args(self.argv())
        for strategy in cli.TOY_STRATEGIES:
            ReplayBuffer(TOY_CAPACITY, strategy, class_count=TOY_CLASSES)

    def reuse_setup(self, cli) -> None:
        """Keep the per-repetition class counts each round computes."""
        study = cli.balance_toy

        def balance_toy(*args, **kwargs):
            self.counts = study(*args, **kwargs)
            return self.counts
        cli.balance_toy = balance_toy

    ops_per_round = 4
    examples_per_round = 4 * TOY_REPETITIONS * TOY_CLASSES * TOY_PER_CLASS

    def check_round(self) -> tuple[float, list[str]]:
        """(mean balance overlap, problems). The overlap of one buffer is
        sum_c min(count_c, ideal) / capacity: the share of its slots that a
        perfectly balanced buffer would hold too."""
        summary = json.loads((self.out / "balance.json").read_text())["strategies"]
        ideal = TOY_CAPACITY / TOY_CLASSES
        problems = []
        if sorted(summary) != sorted(self.counts):
            return 0.0, [f"strategies {sorted(summary)} in balance.json"]
        for strategy, mat in self.counts.items():
            if mat.shape != (TOY_REPETITIONS, TOY_CLASSES) or np.any(mat.sum(axis=1) != TOY_CAPACITY):
                problems.append(f"{strategy}: a buffer does not hold {TOY_CAPACITY} items")
            mse = float(((mat - ideal) ** 2).mean(axis=1).mean())
            if not math.isclose(summary[strategy]["mse_mean"], mse, rel_tol=1e-12, abs_tol=1e-12):
                problems.append(f"{strategy}: mse_mean {summary[strategy]['mse_mean']} != {mse}")
        res = summary["reservoir"]
        stderr = res["mse_std"] / math.sqrt(TOY_REPETITIONS)
        if abs(res["mse_mean"] - RESERVOIR_MSE) > 4 * stderr:
            problems.append(f"reservoir MSE {res['mse_mean']:.4f} is more than 4 standard "
                            f"errors ({stderr:.4f}) from {RESERVOIR_MSE:.4f}")
        if summary["ring"]["mse_mean"] != 0.0:
            problems.append(f"ring MSE {summary['ring']['mse_mean']} is not 0")
        for strategy in ("brs", "lars"):
            if not summary[strategy]["mse_mean"] < res["mse_mean"]:
                problems.append(f"{strategy} MSE is not below reservoir")
        overlap = np.mean([np.minimum(mat, ideal).sum(axis=1).mean() / TOY_CAPACITY
                           for mat in self.counts.values()])
        return float(overlap), problems


WORKLOADS = {"lars-bic": LarsBic, "fmnist-iba": FmnistIba, "balance-toy": BalanceToy}
