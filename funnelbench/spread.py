#!/usr/bin/env python3
"""Runs one workload of the benchmark on consecutive seeds and prints,
for every end-to-end metric, the median of its values and the spread:
the distance between the first and third quartile as a share of the
median (statistics.quantiles(values, n=4)), next to the metric's bound.

Run it from the repository root:

    python3 funnelbench/spread.py --workload funnel --runs 10 --first-seed 1
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="also write the values and spreads to this JSON file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        steal = [l for l in proc.stderr.splitlines() if l.startswith("cpu steal")]
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: {res}")
        for name in values:
            values[name].append(res["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items())
              + (f" ({steal[0]})" if steal else ""), flush=True)

    report = {}
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / statistics.median(v)
        report[m["name"]] = {"median": statistics.median(v), "spread": spread, "bound": m["bound"], "values": v}
        flag = "" if spread <= m["bound"] / 3 else ("  above a third of the bound" if spread <= m["bound"] else "  ABOVE THE BOUND")
        print(f"{m['name']:>18}: median {statistics.median(v):.5g}, spread {spread:.3f} (bound {m['bound']}){flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "first_seed": args.first_seed, "metrics": report}, f, indent=1)


if __name__ == "__main__":
    main()
