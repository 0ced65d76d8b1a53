"""Command-line surface and desk-scale experiment entry points.

Subcommands:

* ``run``         -- class-incremental training over a seed list; writes
                     runs.csv and report.json.
* ``ablation``    -- cumulative trick ablation; writes ablation.csv/.json.
* ``balance-toy`` -- buffer-balance study on a small label stream; writes
                     balance.csv/.json.
* ``omission``    -- analytic vs Monte-Carlo class-omission probability.
* ``gradcheck``   -- analytic-vs-numeric gradient verification.

Configuration is a flat ``key = value`` text file (``#`` starts a comment);
command-line flags override file values. Unknown keys and bad values are
rejected before any data is read. The resolved configuration is hashed and
echoed into every output row, so runs are auditable and byte-reproducible
(wall-clock aside). Exit codes: 2 config, 3 data, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .datasets import (FASHION_MNIST_CLASSES, FASHION_MNIST_IMAGE_DIMS, IdxFormatError,
                       load_fashion_mnist, make_class_il_tasks, synthetic_class_il_stream)
from .mlp import FD_STEP, Mlp, gradient_check
from .sampling import STRATEGIES, ReplayBuffer, omission_probability
from .trainer import (TRICK_TOKENS, TrainConfig, ablation_configs, ablation_suite,
                      aug_policy, run_class_il, run_joint_baseline, run_many)

DATA_ENV_VAR = "REPLAYLAB_DATA"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_DATA_ERROR = 3
EXIT_RUNTIME_ERROR = 4


class ConfigError(ValueError):
    """Bad configuration file, key, value, or flag combination."""


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text or text.lower() == "none":
        return ()
    return tuple(int(tok) for tok in text.split(","))


def _parse_tricks(text: str) -> tuple[str, ...]:
    text = text.strip().lower()
    if not text or text == "none":
        return ()
    tokens = [tok.strip() for tok in text.split(",")]
    bad = [t for t in tokens if t not in TRICK_TOKENS]
    if bad:
        raise ValueError(f"unknown tricks {bad}; valid: {list(TRICK_TOKENS)}")
    # one configuration, one hash: the order and repeats as typed do not count
    return tuple(t for t in TRICK_TOKENS if t in tokens)


def _config_key(field_name: str) -> str:
    """The config key of a ``TrainConfig`` field: the underscore after an
    ``aug`` prefix reads as ``.`` (``aug_max_shift`` -> ``aug.max_shift``)."""
    if field_name.startswith("aug_"):
        return field_name.replace("_", ".", 1)
    return field_name


# TrainConfig fields with a config key of their own: not the trick booleans
# (from ``tricks``), ``seed`` (from ``seeds``) or ``image_dims`` (from the
# dataset).
_TRAIN_FIELDS = tuple(f for f in fields(TrainConfig)
                      if f.name not in (*TRICK_TOKENS, "seed", "image_dims"))
_PARSER_BY_TYPE = {bool: _parse_bool, int: int, float: float, str: str, tuple: _parse_int_list}

# Registry of configuration keys: default value and parser. The documented
# configuration surface is exactly this table (see README).
CONFIG_KEYS: dict[str, tuple[object, object]] = {
    "dataset": ("synthetic", str),                  # synthetic | fashion-mnist
    "data_dir": ("", str),                          # empty -> $REPLAYLAB_DATA
    "method": ("auto", str),                        # auto | joint
    "seeds": ((0,), _parse_int_list),
    "classes_per_task": (2, int),
    "tricks": ((), _parse_tricks),
    **{_config_key(f.name): (f.default, _PARSER_BY_TYPE[type(f.default)])
       for f in _TRAIN_FIELDS},
    "synthetic.class_count": (10, int),
    "synthetic.per_class": (300, int),
    "synthetic.per_class_test": (100, int),
    "synthetic.feature_dim": (32, int),
    "synthetic.separation": (4.0, float),
    "synthetic.seed": (0, int),
}


@dataclass
class ExperimentConfig:
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def canonical_lines(self) -> list[str]:
        out = []
        for key in sorted(self.values):
            val = self.values[key]
            if isinstance(val, tuple):
                rendered = ",".join(str(v) for v in val) or "none"
            elif isinstance(val, bool):
                rendered = "true" if val else "false"
            elif isinstance(val, float):
                rendered = repr(val)
            else:
                rendered = str(val)
            out.append(f"{key} = {rendered}")
        return out

    def config_hash(self) -> str:
        blob = "\n".join(self.canonical_lines()).encode()
        return hashlib.sha256(blob).hexdigest()


def _parse_value(key: str, text: str, where: str):
    """Parse a config line's or a flag's value with the parser of ``key``."""
    try:
        return CONFIG_KEYS[key][1](text)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc


def parse_config_text(text: str) -> dict:
    """Parse a flat key = value document, validating keys and values. Each
    key may be set only once."""
    values, set_on = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in set_on:
            raise ConfigError(f"line {lineno}: {key} is already set on line {set_on[key]}")
        set_on[key] = lineno
        values[key] = _parse_value(key, val, f"line {lineno}")
    return values


def load_experiment_config(path: str | None, overrides: dict) -> ExperimentConfig:
    values = {key: default for key, (default, _) in CONFIG_KEYS.items()}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        values.update(parse_config_text(text))
    values.update(overrides)
    cfg = ExperimentConfig(values)
    _validate_experiment(cfg)
    return cfg


def _validate_experiment(cfg: ExperimentConfig) -> None:
    """Reject every bad setting before any data is read (run settings via
    ``TrainConfig``, augmentation settings via the run's ``AugPolicy``)."""
    if cfg["dataset"] not in ("synthetic", "fashion-mnist"):
        raise ConfigError(f"dataset must be synthetic or fashion-mnist, got {cfg['dataset']!r}")
    if cfg["method"] not in ("auto", "joint"):
        raise ConfigError(f"method must be auto or joint, got {cfg['method']!r}")
    if not cfg["seeds"]:
        raise ConfigError("seeds must list at least one seed")
    minimums = {"classes_per_task": 1, "synthetic.class_count": 1, "synthetic.per_class": 1,
                "synthetic.per_class_test": 1, "synthetic.feature_dim": 1, "synthetic.seed": 0}
    for key, low in minimums.items():
        if cfg[key] < low:
            raise ConfigError(f"{key} must be >= {low}, got {cfg[key]}")
    separation = cfg["synthetic.separation"]
    if not math.isfinite(separation):
        raise ConfigError(f"synthetic.separation must be finite, got {separation}")
    class_count, feature_dim, _ = _dataset_shape(cfg)
    # the generator's largest class mean (datasets._raw_blobs)
    largest_mean = (1 + (class_count - 1) // feature_dim) * separation
    if not math.isfinite(largest_mean):
        raise ConfigError(f"synthetic.separation {separation} puts the largest class mean "
                          f"at {largest_mean}")
    if class_count % cfg["classes_per_task"]:
        raise ConfigError(f"classes_per_task {cfg['classes_per_task']} does not divide "
                          f"the class count {class_count}")
    configs = [train_config_from_experiment(cfg, seed) for seed in cfg["seeds"]]
    try:
        aug_policy(configs[0], feature_dim)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _dataset_shape(cfg: ExperimentConfig) -> tuple[int, int, tuple[int, ...] | None]:
    """The configured dataset's class count, feature dim and image dims
    (None for the synthetic rows, which are not images)."""
    if cfg["dataset"] == "synthetic":
        return cfg["synthetic.class_count"], cfg["synthetic.feature_dim"], None
    return FASHION_MNIST_CLASSES, math.prod(FASHION_MNIST_IMAGE_DIMS), FASHION_MNIST_IMAGE_DIMS


def train_config_from_experiment(cfg: ExperimentConfig, seed: int) -> TrainConfig:
    """Copy each ``TrainConfig`` field from its config key (``aug_max_shift``
    from ``aug.max_shift``); each trick token sets the boolean of the same
    name; ``image_dims`` is the dataset's."""
    kwargs = {f.name: cfg[_config_key(f.name)] for f in _TRAIN_FIELDS}
    kwargs.update({t: t in cfg["tricks"] for t in TRICK_TOKENS})
    try:
        return TrainConfig(**kwargs, image_dims=_dataset_shape(cfg)[2], seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_task_stream(cfg: ExperimentConfig):
    if cfg["dataset"] == "synthetic":
        return synthetic_class_il_stream(
            class_count=cfg["synthetic.class_count"],
            per_class_train=cfg["synthetic.per_class"],
            per_class_test=cfg["synthetic.per_class_test"],
            feature_dim=cfg["synthetic.feature_dim"],
            separation=cfg["synthetic.separation"],
            classes_per_task=cfg["classes_per_task"],
            seed=cfg["synthetic.seed"],
        )
    data_dir = cfg["data_dir"] or os.environ.get(DATA_ENV_VAR, "")
    if not data_dir:
        raise FileNotFoundError(
            f"no data_dir configured and ${DATA_ENV_VAR} is not set")
    train, test = load_fashion_mnist(data_dir)
    rng = np.random.default_rng(np.random.SeedSequence([cfg["synthetic.seed"], 0xD47A]))
    return make_class_il_tasks(train, test, cfg["classes_per_task"], rng)


# -- output writing ------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


class _OutputPair:
    """A command's CSV and JSON outputs. The directory is made when the pair
    is made, so an unwritable output directory fails before any work."""

    def __init__(self, out: str, csv_name: str, json_name: str, schema: str):
        out_dir = Path(out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
        self.csv, self.json, self.schema = out_dir / csv_name, out_dir / json_name, schema

    def write(self, config_hash: str, header: list[str], rows: list[list],
              payload: dict) -> None:
        """Write the CSV, under a schema and config-hash comment, and the JSON."""
        lines = [f"# {self.schema} config_sha256={config_hash}", ",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        self.csv.write_text("\n".join(lines) + "\n")
        self.json.write_text(json.dumps({"schema": self.schema, **payload},
                                        indent=2, sort_keys=True) + "\n")


# -- subcommands ----------------------------------------------------------------


def cmd_run(args) -> int:
    cfg = load_experiment_config(args.config, _run_overrides(args))
    out = _OutputPair(args.out, "runs.csv", "report.json", "replay-lab-runs-v2")
    stream = build_task_stream(cfg)
    chash = cfg.config_hash()

    run = run_joint_baseline if cfg["method"] == "joint" else run_class_il
    reports = run_many(run, stream,
                       [train_config_from_experiment(cfg, seed) for seed in cfg["seeds"]])

    n_tasks = stream.n_tasks
    header = (["method", "tricks", "seed", "config_hash"]
              + [f"acc_task_{t}" for t in range(n_tasks)]
              + ["average_accuracy", "wall_clock_seconds"])
    rows = []
    for rep in reports:
        tricks = "+".join(t for t in TRICK_TOKENS if rep.config.get(t)) or "none"
        rows.append([rep.method, tricks, rep.seed, chash]
                    + rep.per_task_accuracy
                    + [rep.average_accuracy, rep.wall_clock_seconds])
    out.write(chash, header, rows, {
        "config": cfg.values,
        "config_sha256": chash,
        "runs": [rep.to_json_dict() for rep in reports],
    })
    print(f"wrote {out.csv} and {out.json}")
    return EXIT_OK


def cmd_ablation(args) -> int:
    cfg = load_experiment_config(args.config, _run_overrides(args))
    # every row adds tricks to experience replay: under these settings each
    # row would run SGD, or the class-IL run that `method = joint` replaces
    for line in cfg.canonical_lines():
        if line in ("method = joint", "replay_enabled = false", "buffer_capacity = 0"):
            raise ConfigError(f"ablation runs experience replay, so it cannot take {line}")
    steps = ablation_configs(train_config_from_experiment(cfg, cfg["seeds"][0]))
    out = _OutputPair(args.out, "ablation.csv", "ablation.json", "replay-lab-ablation-v2")
    stream = build_task_stream(cfg)
    chash = cfg.config_hash()
    rows = ablation_suite(stream, steps, cfg["seeds"])

    summary = [{"label": row.label,
                "tricks": list(row.config.active_tricks()),
                "mean_accuracy": row.mean_accuracy,
                "std_accuracy": row.std_accuracy,
                "runs": [rep.to_json_dict() for rep in row.reports]} for row in rows]
    header = ["label", "tricks", "seeds", "config_hash",
              "mean_accuracy", "std_accuracy"]
    seeds = ";".join(str(s) for s in cfg["seeds"])
    csv_rows = [[r["label"], "+".join(r["tricks"]) or "none", seeds, chash,
                 r["mean_accuracy"], r["std_accuracy"]] for r in summary]
    out.write(chash, header, csv_rows,
              {"config": cfg.values, "config_sha256": chash, "rows": summary})
    print(f"wrote {out.csv} and {out.json}")
    return EXIT_OK


TOY_CLASS_COUNT = 6
TOY_PER_CLASS = 170
TOY_CAPACITY = 12
TOY_STRATEGIES = STRATEGIES


def fifo_class_counts(labels, capacity: int, class_count: int) -> np.ndarray:
    """Final per-class counts of a class-wise FIFO (Chaudhry et al. 2019)
    of ``capacity`` slots fed ``labels``: each class keeps its newest
    ``capacity // class_count`` items, so it holds ``min(n_c, that)``."""
    return np.minimum(np.bincount(labels, minlength=class_count), capacity // class_count)


def balance_toy(repetitions: int, seed: int) -> dict[str, np.ndarray]:
    """Stream a small balanced label stream (shaped by the ``TOY_*``
    constants) into one buffer per strategy and record the final counts.

    Returns, per strategy, a (repetitions, TOY_CLASS_COUNT) matrix of counts,
    and last a ``"ring"`` matrix: the exact final counts of a class-wise FIFO,
    ``min(n_c, TOY_CAPACITY // TOY_CLASS_COUNT)`` for the ``n_c`` items of
    class c, read from the stream. The stream order is shuffled fresh each
    repetition, and all strategies within a repetition see the same order,
    so their statistics are paired.
    """
    labels = np.repeat(np.arange(TOY_CLASS_COUNT), TOY_PER_CLASS)
    counts = {s: np.zeros((repetitions, TOY_CLASS_COUNT)) for s in (*TOY_STRATEGIES, "ring")}
    no_features = np.empty((labels.size, 0))
    zero_losses = np.zeros(labels.size)
    for rep in range(repetitions):
        children = np.random.SeedSequence([seed, rep]).spawn(len(TOY_STRATEGIES) + 1)
        order = np.random.default_rng(children[0]).permutation(labels.size)
        stream = labels[order]
        for strategy, child in zip(TOY_STRATEGIES, children[1:]):
            rng = np.random.default_rng(child)
            buf = ReplayBuffer(TOY_CAPACITY, strategy, TOY_CLASS_COUNT)
            buf.update(no_features, stream, zero_losses, rng)
            counts[strategy][rep] = np.bincount(buf.labels[:buf.n_filled],
                                                minlength=TOY_CLASS_COUNT)
        counts["ring"][rep] = fifo_class_counts(stream, TOY_CAPACITY, TOY_CLASS_COUNT)
    return counts


def cmd_balance_toy(args) -> int:
    out = _OutputPair(args.out, "balance.csv", "balance.json", "replay-lab-balance-v1")
    counts = balance_toy(args.repetitions, args.seed)
    ideal = TOY_CAPACITY / TOY_CLASS_COUNT
    chash = hashlib.sha256(
        f"balance-toy repetitions={args.repetitions} seed={args.seed}".encode()).hexdigest()

    summary = {}
    for strategy, mat in counts.items():
        mses = ((mat - ideal) ** 2).mean(axis=1)
        summary[strategy] = {"mse_mean": float(mses.mean()),
                             "mse_std": float(mses.std()),
                             "mean_counts": mat.mean(axis=0).tolist(),
                             "std_counts": mat.std(axis=0).tolist()}
        print(f"{strategy:>10}: MSE {mses.mean():.3f} +/- {mses.std():.3f}")
    header = (["strategy", "repetitions", "mse_mean", "mse_std"]
              + [f"mean_count_{c}" for c in range(TOY_CLASS_COUNT)]
              + [f"std_count_{c}" for c in range(TOY_CLASS_COUNT)])
    rows = [[strategy, args.repetitions, s["mse_mean"], s["mse_std"],
             *s["mean_counts"], *s["std_counts"]] for strategy, s in summary.items()]
    out.write(chash, header, rows, {
        "repetitions": args.repetitions,
        "seed": args.seed,
        "ideal_per_class": ideal,
        "strategies": summary,
    })
    return EXIT_OK


def monte_carlo_omission(class_count: int, capacity: int, trials: int,
                         seed: int) -> float:
    """Fraction of trials in which a class ends up unrepresented when
    ``capacity`` items are drawn uniformly from balanced classes, averaged
    over classes. Draws are processed in blocks to bound memory; the
    draws, and so the result, do not depend on the block size."""
    if class_count == 1 or capacity == 0:
        return 0.0 if class_count == 1 else 1.0
    rng = np.random.default_rng(np.random.SeedSequence([seed, class_count, capacity]))
    block = max(1, 10_000_000 // max(capacity, class_count))
    absent = 0
    for done in range(0, trials, block):
        n = min(block, trials - done)
        present = np.zeros((n, class_count), dtype=bool)
        present[np.arange(n)[:, None], rng.integers(0, class_count, size=(n, capacity))] = True
        absent += n * class_count - int(np.count_nonzero(present))
    return absent / class_count / trials


def cmd_omission(args) -> int:
    out = (_OutputPair(args.out, "omission.csv", "omission.json", "replay-lab-omission-v1")
           if args.out else None)
    analytic = omission_probability(args.classes, args.capacity)
    mc = monte_carlo_omission(args.classes, args.capacity, args.trials, args.seed)
    print(f"C={args.classes} B={args.capacity}: "
          f"analytic={analytic:.6f} monte_carlo={mc:.6f} ({args.trials} trials)")
    if out:
        chash = hashlib.sha256(
            f"omission C={args.classes} B={args.capacity} trials={args.trials} "
            f"seed={args.seed}".encode()).hexdigest()
        out.write(chash, ["class_count", "capacity", "analytic", "monte_carlo", "trials"],
                  [[args.classes, args.capacity, analytic, mc, args.trials]],
                  {"class_count": args.classes, "capacity": args.capacity,
                   "analytic": analytic, "monte_carlo": mc, "trials": args.trials,
                   "seed": args.seed})
    return EXIT_OK


class _BrokenReluBackwardMlp(Mlp):
    """Self-check fixture: backward with the ReLU mask inverted. The
    gradient checker must reject it."""

    def backward(self, cache, dlogits):
        # negated pre-activations make the ReLU mask select the dead units
        super().backward(dict(cache, pres=[-p for p in cache["pres"]]), dlogits)


def gradcheck(seed: int, trials: int) -> tuple[list[tuple[list[int], bool, float]], bool]:
    """Gradient-check ``trials`` random nets and one ``[6, 8, 5]`` net whose
    backward inverts the ReLU mask (drawn from ``SeedSequence([seed, 0xBAD])``).

    Net i, from ``SeedSequence([seed, i])``, has 2-4 layers of width 2-8,
    biases in [0.05, 0.2] and 4 input rows. It is drawn again while a hidden
    pre-activation lies within ``10 * FD_STEP`` of zero: at the ReLU kink the
    subgradient and a central difference legitimately disagree. Returns
    (dims, pass, worst residual ratio) per net, and whether the inverted mask
    was rejected.
    """
    nets = []
    for i in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        while True:
            dims = [int(rng.integers(2, 9)) for _ in range(int(rng.integers(2, 5)))]
            model = Mlp(dims, rng)
            for b in model.biases:
                b[:] = rng.uniform(0.05, 0.2, size=b.shape)
            x = rng.uniform(size=(4, dims[0]))
            y = rng.integers(0, dims[-1], size=4)
            if all(np.abs(pre).min() >= 10 * FD_STEP for pre in model.forward(x)[1]["pres"]):
                break
        nets.append((dims, *gradient_check(model, x, y)))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBAD]))
    broken = _BrokenReluBackwardMlp([6, 8, 5], rng)
    x = rng.uniform(0, 1, size=(4, 6))
    y = rng.integers(0, 5, size=4)
    return nets, not gradient_check(broken, x, y)[0]


def cmd_gradcheck(args) -> int:
    nets, rejected = gradcheck(args.seed, args.trials)
    for dims, ok, worst in nets:
        print(f"net {dims}: {'pass' if ok else 'FAIL'} (worst residual ratio {worst:.3g})")
    print(f"corrupted backward rejected: {'yes' if rejected else 'NO'}")
    if all(ok for _, ok, _ in nets) and rejected:
        print("gradcheck: PASS")
        return EXIT_OK
    print("gradcheck: FAIL")
    return EXIT_CHECK_FAILED


# -- argument parsing -----------------------------------------------------------


# run and ablation flags that override a config key
_RUN_FLAG_KEYS = {"seeds": "seeds", "buffer": "buffer_capacity", "tricks": "tricks",
                  "dataset": "dataset"}


def _run_overrides(args) -> dict:
    return {key: _parse_value(key, getattr(args, flag), f"--{flag}")
            for flag, key in _RUN_FLAG_KEYS.items() if getattr(args, flag) is not None}


def _int_at_least(low: int):
    """An argparse type: an int no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


_positive = _int_at_least(1)
_non_negative = _int_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replay-lab",
        description="Experience replay for class-incremental learning: "
                    "training runs, trick ablations, and sampling studies.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--seeds", default=None, help="comma-separated seed list")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--buffer", default=None, help="buffer capacity override")
        p.add_argument("--tricks", default=None,
                       help=f"comma list of {{{','.join(TRICK_TOKENS)}}} or 'none'")
        p.add_argument("--dataset", choices=["fashion-mnist", "synthetic"], default=None)

    p_run = sub.add_parser("run", help="train over the configured seed list")
    add_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_abl = sub.add_parser("ablation", help="cumulative trick ablation")
    add_run_flags(p_abl)
    p_abl.set_defaults(func=cmd_ablation)

    p_toy = sub.add_parser("balance-toy", help="buffer balance study (capacity 12, 6 classes)")
    p_toy.add_argument("--repetitions", type=_positive, default=500)
    p_toy.add_argument("--seed", type=_non_negative, default=0)
    p_toy.add_argument("--out", default="out")
    p_toy.set_defaults(func=cmd_balance_toy)

    p_om = sub.add_parser("omission", help="class-omission probability, closed form vs Monte Carlo")
    p_om.add_argument("--classes", type=_positive, required=True)
    p_om.add_argument("--capacity", type=_non_negative, required=True)
    p_om.add_argument("--trials", type=_positive, default=100_000)
    p_om.add_argument("--seed", type=_non_negative, default=0)
    p_om.add_argument("--out", default=None)
    p_om.set_defaults(func=cmd_omission)

    p_gc = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p_gc.add_argument("--seed", type=_non_negative, default=0)
    p_gc.add_argument("--trials", type=_positive, default=20)
    p_gc.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (IdxFormatError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except FloatingPointError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    except Exception:
        traceback.print_exc()
        return EXIT_RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
