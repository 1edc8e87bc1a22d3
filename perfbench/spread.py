"""Run the benchmark over several seeds and summarize each metric.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workloads degree1-m2048,cli-cold \
        --seeds 1-10 [--trace 0|1] [--out summary.json]

For every workload and metric it prints the median over the runs, the
quartiles from statistics.quantiles(values, n=4), and the quartile
distance as a share of the median next to the metric's bound from
BENCHMARK.json.  A spread below a third of the bound counts as steady.
--out adds the summary to the file under "trace0" or "trace1", with the
provenance of the first run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in
              spec["per_layer" if args.trace else "end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "trace": args.trace,
               "seeds": parse_seeds(args.seeds), "workloads": {}}
    for name in args.workloads.split(","):
        runs = []
        for seed in summary["seeds"]:
            proc = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{name} seed {seed}: attempted {runs[-1]['attempted']} "
                  f"failed {runs[-1]['failed']}", flush=True)
        rows = {m: summarize([r["metrics"][m]["value"] for r in runs])
                for m in bounds}
        summary["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs), "metrics": rows}
        for m, row in rows.items():
            bound = bounds[m]
            flag = "" if bound is None else (
                "steady" if row["spread"] < bound / 3 else
                "within bound" if row["spread"] <= bound else "TOO WIDE")
            print(f"  {m:52s} median {row['median']:<12.6g} spread "
                  f"{row['spread']:.4f} bound {bound} {flag}", flush=True)
    if args.out:
        # one file keeps both kinds of run, under "trace0" and "trace1"
        merged = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                merged = json.load(fh)
        name, seed = args.workloads.split(",")[0], summary["seeds"][0]
        with open(os.path.join(".perfbench-out", "results",
                               f"{name}-seed{seed}-trace{args.trace}.json")) as fh:
            merged["provenance"] = json.load(fh)["provenance"]
        merged[f"trace{args.trace}"] = summary
        with open(args.out, "w") as fh:
            json.dump(merged, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
