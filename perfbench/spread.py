#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workloads table4_fit,serve_hot --seeds 1-10
    python3 perfbench/spread.py --workloads serve_cold --seeds 1-5 --trace 1

For every workload and metric it prints the median of the runs and the
spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to
the metric's bound from BENCHMARK.json. Raw results go to
`perfbench/runs/spread-<time>.jsonl` so a steadiness record can cite them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            a, b = part.split("-")
            seeds.extend(range(int(a), int(b) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: NOT CORRECT\n{proc.stderr}", file=sys.stderr)
    return result, wall


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    out_dir = os.path.join(ROOT, "perfbench", "runs")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, time.strftime("spread-%Y%m%d-%H%M%S.jsonl"))
    worst = 0.0
    with open(log_path, "w") as log:
        for workload in args.workloads.split(","):
            values = {}
            for seed in seed_list(args.seeds):
                result, wall = run(bench["command"], workload, seed, args.seconds, args.trace)
                log.write(json.dumps({"workload": workload, "seed": seed, "wall_s": wall, **result}) + "\n")
                log.flush()
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                print(f"  {workload} seed {seed}: {wall:.1f}s correct={result['correct']} failed={result['failed']}")
            print(f"{workload}: {'metric':<28}{'median':>14}{'spread':>9}{'bound':>7}")
            for name, v in values.items():
                med = statistics.median(v)
                if len(v) >= 2 and med != 0:
                    q = statistics.quantiles(v, n=4)
                    spread = (q[2] - q[0]) / abs(med)
                else:
                    spread = 0.0
                bound = bounds.get(name)
                if bound and name != "setup_s":
                    worst = max(worst, spread / bound)
                flag = "" if bound is None or spread < bound / 3 else "  <-- over a third of bound"
                print(f"{'':<{len(workload) + 2}}{name:<28}{med:>14.6g}{spread:>9.3f}{bound if bound else '':>7}{flag}")
    print(f"raw results: {os.path.relpath(log_path, ROOT)}; worst spread/bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
