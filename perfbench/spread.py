#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every workload and metric this prints the median of the runs and
the distance between the first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) as a share of the
median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workloads sim_campaign,cluster_solo \
        --seeds 1-10 --seconds 15 [--trace 0] [--out runs.jsonl]

Run it from the repository root. It builds once with the command in
BENCHMARK.json and then runs that command once per (workload, seed).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--out", help="append every result line to this file")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
            ]
            t0 = time.time()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
            result = json.loads(lines[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect output")
            runs.append(result)
            print(f"{workload} seed {seed}: {time.time() - t0:.1f} s, "
                  f"attempted {result['attempted']}, failed {result['failed']}", flush=True)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / abs(med) if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  OVER BOUND" if spread > bound else ("  over bound/3" if spread > bound / 3 else "")
            print(f"  {workload:<13} {name:<36} median {med:>14.6g} {unit:<6} "
                  f"IQR/median {spread:7.4f}  bound {bound}{flag}")
    print(f"worst spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
