"""Spans around calls into the public functions of each replay_lab module.

A traced run replaces those functions, where their callers look them up,
with wrappers that time each call. A span's self time is its duration minus
the time of the spans it encloses, so the self times of one round add up to
the round's wall time. The wrappers also count work at the same
boundaries. Everything is aggregated in memory per span name; a round's
totals are taken with ``take``.

The program itself is not changed: removing the wrappers (``uninstall``)
restores every function that was replaced.
"""

from __future__ import annotations

import functools
import statistics
from time import perf_counter

# Per-layer metrics in output order: name -> unit. Times are self seconds
# per round, counts are per round, ``datasets.*`` are per set-up.
PER_LAYER = {
    "sampling.update_s": "s",
    "sampling.draw_s": "s",
    "sampling.refresh_s": "s",
    "sampling.offers": "count",
    "sampling.admitted": "count",
    "sampling.admit_ratio": "fraction",
    "mlp.forward_s": "s",
    "mlp.backward_s": "s",
    "mlp.sgd_s": "s",
    "mlp.loss_s": "s",
    "mlp.forward_calls": "count",
    "mlp.rows": "count",
    "mlp.gflop": "GFLOP",
    "augmentation.stream_s": "s",
    "augmentation.iba_s": "s",
    "augmentation.items": "count",
    "bias_correction.fit_s": "s",
    "bias_correction.fits": "count",
    "evaluation.s": "s",
    "datasets.load_s": "s",
    "datasets.build_s": "s",
    "trainer.self_s": "s",
    "trainer.steps": "count",
    "trainer.step_ms_p50": "ms",
    "trainer.step_ms_p90": "ms",
    "cli.self_s": "s",
}

ROOT_SPAN = "cli.self_s"


class Tracer:
    def __init__(self):
        self._stack: list[list[float]] = []   # child seconds of each open span
        self._patches: list[tuple[object, str, object]] = []
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.step_s: list[float] = []

    def wrap(self, owner, attr: str, span: str, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records ``span``.

        ``count(tracer, args, result, seconds)`` runs after each call that
        returns. A missing attribute raises: the benchmark must not go on
        measuring a function the program no longer calls.
        """
        fn = getattr(owner, attr)
        stack, self_s = self._stack, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += seconds
                self_s[span] = self_s.get(span, 0.0) + seconds - frame[0]
            if count is not None:
                count(self, args, result, seconds)
            return result

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def take(self) -> tuple[dict[str, float], dict[str, int], list[float]]:
        """Return and reset the totals gathered since the last call."""
        out = (self.self_s.copy(), self.counts.copy(), list(self.step_s))
        self.self_s.clear()
        self.counts.clear()
        self.step_s.clear()
        return out

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()


def _matmul_flop(model, rows: int, skip_first: bool = False) -> int:
    dims = model.layer_dims
    pairs = list(zip(dims[:-1], dims[1:]))[1 if skip_first else 0:]
    return 2 * rows * sum(a * b for a, b in pairs)


def _count_offer(tr, args, result, seconds):
    tr.add("sampling.offers")
    tr.add("sampling.admitted", args[0].last_insert_slot is not None)


def _count_forward(tr, args, result, seconds):
    rows = result[1]["batch"]
    tr.add("mlp.forward_calls")
    tr.add("mlp.rows", rows)
    tr.add("mlp.flop", _matmul_flop(args[0], rows))


def _count_backward(tr, args, result, seconds):
    # weight gradients of every layer, deltas of every layer but the first
    rows = args[2].shape[0]
    tr.add("mlp.flop", _matmul_flop(args[0], rows) + _matmul_flop(args[0], rows, True))


def _count_step(tr, args, result, seconds):
    tr.add("trainer.steps")
    tr.step_s.append(seconds)


def install(cli) -> Tracer:
    """Wrap the public functions of every layer ``cli`` reaches."""
    from replay_lab import mlp, sampling, trainer

    tr = Tracer()
    tr.wrap(cli, "main", ROOT_SPAN)
    tr.wrap(cli, "run_class_il", "trainer.self_s")
    tr.wrap(trainer, "er_train_step", "trainer.self_s", _count_step)
    tr.wrap(cli, "load_fashion_mnist", "datasets.load_s")
    for name in ("synthetic_class_il_stream", "make_class_il_tasks"):
        tr.wrap(cli, name, "datasets.build_s")
    tr.wrap(sampling.ReplayBuffer, "update", "sampling.update_s", _count_offer)
    tr.wrap(sampling.ReplayBuffer, "draw_replay_batch", "sampling.draw_s")
    tr.wrap(sampling.ReplayBuffer, "refresh_loss_scores", "sampling.refresh_s")
    tr.wrap(mlp.Mlp, "forward", "mlp.forward_s", _count_forward)
    tr.wrap(mlp.Mlp, "backward", "mlp.backward_s", _count_backward)
    tr.wrap(mlp.Mlp, "sgd_step", "mlp.sgd_s")
    tr.wrap(trainer, "softmax_cross_entropy", "mlp.loss_s")
    tr.wrap(trainer, "augment", "augmentation.stream_s",
            lambda t, a, r, s: t.add("augmentation.items"))
    tr.wrap(trainer, "replay_with_iba", "augmentation.iba_s",
            lambda t, a, r, s: t.add("augmentation.items", len(r[0])))
    tr.wrap(trainer, "fit_bic", "bias_correction.fit_s",
            lambda t, a, r, s: t.add("bias_correction.fits"))
    for name in ("average_final_accuracy", "task_prediction_distribution",
                 "buffer_balance_mse"):
        tr.wrap(trainer, name, "evaluation.s")
    return tr


def per_layer_metrics(setup: dict[str, float], rounds: list[dict]) -> dict[str, float]:
    """Per-layer values from the set-up self times and each round's
    ``{"self_s", "counts", "step_s"}``: the median self time over rounds,
    the counts of the first round and step-time percentiles over all steps."""
    counts = rounds[0]["counts"]
    steps_ms = [1e3 * s for r in rounds for s in r["step_s"]]
    out = {}
    for name in PER_LAYER:
        if name.startswith("datasets."):
            out[name] = setup.get(name, 0.0)
        elif PER_LAYER[name] == "s":
            out[name] = statistics.median(r["self_s"].get(name, 0.0) for r in rounds)
        elif PER_LAYER[name] == "count":
            out[name] = counts.get(name, 0)
    offers = counts.get("sampling.offers", 0)
    out["sampling.admit_ratio"] = counts.get("sampling.admitted", 0) / offers if offers else 0.0
    out["mlp.gflop"] = counts.get("mlp.flop", 0) / 1e9
    if len(steps_ms) >= 2:
        deciles = statistics.quantiles(steps_ms, n=10)
        out["trainer.step_ms_p50"] = statistics.median(steps_ms)
        out["trainer.step_ms_p90"] = deciles[8]
    else:
        out["trainer.step_ms_p50"] = out["trainer.step_ms_p90"] = 0.0
    return out
