"""Steadiness check: run each workload repeatedly, one seed per run, and
print each end-to-end metric's median, quartiles and spread across runs.

    python3 bench/steady.py --runs 10 --workloads build-deep cli-pipeline

Every run measures for run_seconds of BENCHMARK.json, as the gated runs
do. Spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4). The bounds in BENCHMARK.json must sit
above the spreads this prints. Results also go to BENCH_steady.json at the
repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One run's result line, with "values" from its BENCH_<label>.json,
    which also holds the ungated round_s."""
    label = f"steady-{workload}"
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--label", label]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr[-500:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, f"BENCH_{label}.json"), encoding="utf-8") as fh:
        result["values"] = json.load(fh)["values"]
    return result


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    names = [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, config["run_seconds"])
            results.append(result)
            values = " ".join(f"{k}={v:.4g}" for k, v in result["values"].items())
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        rows = {}
        for name in results[0]["values"]:
            rows[name] = spread([r["values"][name] for r in results])
            row = rows[name]
            print(f"  {workload:13s} {name:12s} median {row['median']:12.5g}  "
                  f"Q1 {row['q1']:12.5g}  Q3 {row['q3']:12.5g}  spread {row['spread']:.4f}"
                  f"  (bound {bounds.get(name)})", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"  {workload:13s} failed share {sorted(shares)}  "
              f"all correct: {all(r['correct'] for r in results)}", flush=True)
        summary[workload] = {"runs": results, "metrics": rows,
                             "failed_shares": sorted(shares)}
    with open(os.path.join(ROOT, "BENCH_steady.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
