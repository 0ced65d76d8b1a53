"""Steadiness of the benchmark: run every workload N times, each with another
seed, and print for each metric the median, the quartiles and the spread
(distance between the quartiles as a share of the median) next to its bound
in BENCHMARK.json.

    python3 bench/steady.py --runs 10                  # all workloads, end to end
    python3 bench/steady.py --runs 5 --workloads fmnist-iba --first-seed 100
    python3 bench/steady.py --runs 3 --trace 1         # per-layer, plus tracing overhead
    python3 bench/steady.py --runs 10 --sets 2         # two sets, compare their medians

Runs go workload by workload within each seed, so slow drift of the
machine's speed reaches every workload alike. The second of two sets uses
fresh seeds. The summary is also written to ``bench/out/steady-*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
                          check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = BENCH / "out" / f"{workload}-seed{seed}-trace{trace}" / "record.json"
    result["record"] = json.loads(record.read_text())
    return result


def quartiles(values: list[float]) -> tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1) / median)."""
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    if med == 0:
        return q1, med, q3, 0.0 if q1 == q3 else float("inf")
    return q1, med, q3, (q3 - q1) / med


def summarize(results: dict[str, list[dict]], bounds: dict[str, float]) -> dict:
    summary = {}
    for workload, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3, spread = quartiles(values)
            rows[name] = {"unit": runs[0]["metrics"][name]["unit"], "q1": q1, "median": med,
                          "q3": q3, "spread": spread, "bound": bounds.get(name),
                          "values": values}
        traced = [r["record"]["examples_per_s"] for r in runs if r["record"]["trace"]]
        summary[workload] = {"correct": all(r["correct"] for r in runs),
                             "failed_shares": shares, "metrics": rows,
                             "seeds": [r["record"]["seed"] for r in runs]}
        if traced:
            summary[workload]["traced_examples_per_s"] = statistics.median(traced)
        print(f"\n{workload}: {len(runs)} runs, correct={summary[workload]['correct']}, "
              f"failed share(s) {shares}")
        for name, row in rows.items():
            bound = "" if row["bound"] is None else f"  bound {row['bound']:.2f}" \
                + ("  OVER" if row["spread"] > row["bound"] else "")
            print(f"  {name:24s} {row['median']:14.6g} {row['unit']:9s} "
                  f"q1 {row['q1']:12.6g}  q3 {row['q3']:12.6g}  spread {row['spread']:.4f}{bound}")
        if traced:
            print(f"  traced examples_per_s median {summary[workload]['traced_examples_per_s']:.6g}")
    return summary


def main(argv=None) -> int:
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="run each workload N times and print spreads")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    chosen = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    sets = []
    for s in range(args.sets):
        seeds = [args.first_seed + s * args.runs + i for i in range(args.runs)]
        results: dict[str, list[dict]] = {w: [] for w in chosen}
        for seed in seeds:
            for workload in chosen:
                results[workload].append(one_run(workload, seed, args.seconds, args.trace))
        print(f"\n== set {s + 1}: seeds {seeds[0]}..{seeds[-1]}, {args.seconds} s per run")
        sets.append(summarize(results, bounds))

    if len(sets) == 2:
        print("\n== second set against first (share of the first median; + is worse)")
        better = {m["name"]: m["better"] for m in bench["end_to_end"]}
        for workload in chosen:
            for name, row in sets[0][workload]["metrics"].items():
                first, second = row["median"], sets[1][workload]["metrics"][name]["median"]
                if first == 0:
                    continue
                worse = (second - first) / first * (1 if better.get(name) == "lower" else -1)
                print(f"  {workload:12s} {name:24s} {worse:+.4f}  bound {bounds.get(name)}")
            same = sets[0][workload]["failed_shares"] == sets[1][workload]["failed_shares"]
            print(f"  {workload:12s} failed shares equal: {same}")

    out = BENCH / "out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "sets": sets}, indent=1) + "\n")
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
