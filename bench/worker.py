"""One workload in one Python process: set-up, then whole rounds until the
run time is used up, then the checks. Started by ``run.py``, which pins
BLAS to one thread in its environment.

    python3 bench/worker.py --workload W --seed N --work DIR
        (--setup-only | --seconds S --trace 0|1)

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parent.parent

# Median of machine_seconds() on the reference machine (see README).
REFERENCE_MACHINE_S = 0.066


class _Reservoir:
    """A plain-Python reservoir, so the interpreter part of machine_seconds
    does the kind of work a buffer offer does, without calling the program."""

    def __init__(self, capacity: int):
        self.capacity, self.slots, self.seen, self.state = capacity, [], 0, 12345

    def offer(self, item) -> None:
        self.seen += 1
        if len(self.slots) < self.capacity:
            self.slots.append(item)
            return
        self.state = (self.state * 1103515245 + 12345) & 0x7FFFFFFF
        j = self.state % self.seen
        if j < self.capacity:
            self.slots[j] = item


def machine_seconds() -> float:
    """Time a fixed block of work that does not touch the program: reservoir
    offers in plain Python (about a quarter), small numpy operations and a
    BLAS matmul. The machine's speed drifts by 10-25% over minutes; scaling a
    round's rate by the time of this block, measured just before and after
    the round, removes most of that drift (README, "Machine drift")."""
    import numpy as np   # not at the top: set-up time includes importing numpy
    rng = np.random.default_rng(0)
    a, b, x = rng.normal(size=(64, 256)), rng.normal(size=(256, 256)), np.arange(64.0)
    start = perf_counter()
    buf = _Reservoir(12)
    for i in range(40000):
        buf.offer(i)
    for _ in range(3500):
        y = np.maximum(x - x.min(), 0.0)
        y /= y.sum() + 1.0
    for _ in range(100):
        a @ b
    return perf_counter() - start


def import_cli():
    """Import replay_lab from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import replay_lab.cli as cli
    if Path(cli.__file__).resolve().parent.parent != src:
        raise ImportError(f"replay_lab came from {cli.__file__}, not {src}")
    return cli


def blas_info() -> dict:
    """numpy and OpenBLAS versions and the OpenBLAS thread count."""
    import ctypes
    import numpy as np

    info = {"numpy": np.__version__, "openblas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                info["blas_threads"] = int(getattr(handle, symbol)())
                return info
    return info


def run(workload: str, seed: int, work: Path, seconds: float, trace: bool,
        setup_only: bool = False) -> dict:
    """Run one workload in this process and return its result record."""
    start = perf_counter()
    cli = import_cli()
    import workloads
    job = workloads.WORKLOADS[workload](seed, work)
    originals = dict(vars(cli))
    tracer = tracing.install(cli) if trace else None
    try:
        job.setup(cli)
        setup_s = perf_counter() - start
        if setup_only:
            return {"setup_s": setup_s}
        setup_spans = tracer.take()[0] if tracer else {}
        problems = job.check_inputs()
        job.reuse_setup(cli)

        rounds, accuracy, failed_rounds = [], None, 0
        machine = [machine_seconds()]
        # whole rounds only, none that would end after the run time
        t_end = perf_counter() + seconds
        while not rounds or perf_counter() + rounds[-1]["wall_s"] <= t_end:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = perf_counter()
                code = cli.main(job.argv())
                wall = perf_counter() - t0
            machine.append(machine_seconds())
            speed = REFERENCE_MACHINE_S * 2 / (machine[-2] + machine[-1])
            rec = {"wall_s": wall, "raw_examples_per_s": job.examples_per_round / wall,
                   "examples_per_s": job.examples_per_round / wall / speed}
            if tracer:
                rec["self_s"], rec["counts"], rec["step_s"] = tracer.take()
            rounds.append(rec)
            if code != 0:
                failed_rounds += 1
                continue
            score, round_problems = job.check_round()
            problems += round_problems
            if accuracy is None:
                accuracy = score
            elif score != accuracy:
                problems.append(f"round {len(rounds)}: accuracy {score} != {accuracy} "
                                "of the first round")
    finally:
        if tracer:
            tracer.uninstall()
        vars(cli).update(originals)

    attempted = len(rounds) * job.ops_per_round
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "setup_in_process_s": setup_s, "rounds": len(rounds),
        "attempted": attempted, "failed": failed_rounds * job.ops_per_round,
        "problems": problems,
        "examples_per_round": job.examples_per_round,
        "examples_per_s": statistics.median(r["examples_per_s"] for r in rounds),
        "raw_examples_per_s": statistics.median(r["raw_examples_per_s"] for r in rounds),
        "round_wall_s": [r["wall_s"] for r in rounds],
        "machine_s": machine,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "avg_accuracy": accuracy,
        **blas_info(),
    }
    if tracer:
        if any(r["counts"] != rounds[0]["counts"] for r in rounds):
            problems.append("per-layer counts differ between rounds")
        result["per_layer"] = tracing.per_layer_metrics(setup_spans, rounds)
        result["round_span_s"] = [sum(r["self_s"].values()) for r in rounds]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.work, args.seconds, bool(args.trace),
                 args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
