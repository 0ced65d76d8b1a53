"""The replay-lab benchmark: one workload, one run.

    python3 bench/run.py --workload lars-bic --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. It writes the workload's inputs under
``bench/out/``, measures set-up time in a few fresh processes, then runs the
workload in one more process for ``--seconds`` of whole rounds with BLAS
pinned to one thread. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
full record, with versions and per-round times, goes to
``bench/out/<workload>-seed<seed>-trace<trace>/record.json``.

See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = "1"
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "examples_per_s": "1/s", "peak_rss_mb": "MB",
              "avg_accuracy": "fraction"}


def git_sha() -> str | None:
    """The checked-out commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def worker(args: list[str], timeout: float) -> dict:
    """Run ``worker.py`` and return the JSON of its last output line."""
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=timeout, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    # before numpy is imported here or in a worker
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(BENCH))
    import tracing
    import workloads

    parser = argparse.ArgumentParser(description="replay-lab benchmark, one run")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    if not (ROOT / "src" / "replay_lab" / "__init__.py").is_file():
        print(f"run.py: no replay_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))   # prepare() checks the program's IDX parser
    work = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    input_problems = workloads.WORKLOADS[args.workload](args.seed, work).prepare()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", str(work)]
    setup = [] if args.trace else [worker(common + ["--setup-only"], 60)["setup_s"]
                                   for _ in range(SETUP_SAMPLES)]
    record = worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                    WORKER_TIMEOUT_S)
    shutil.rmtree(work / "data", ignore_errors=True)   # generated IDX files, ~5 MB a seed

    if args.trace:
        metrics = {name: {"value": record["per_layer"][name], "unit": unit}
                   for name, unit in tracing.PER_LAYER.items()}
    else:
        record["setup_s"] = statistics.median(setup)
        metrics = {name: {"value": record[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    record.update(setup_samples_s=setup, git_sha=git_sha(), nproc=len(os.sched_getaffinity(0)),
                  python=sys.version.split()[0], blas_threads_env=BLAS_THREADS)
    record["problems"] = input_problems + record["problems"]
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not record["problems"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
