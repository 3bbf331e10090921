#!/usr/bin/env python3
"""Self-test of the benchmark harness.

Run from the repository root:

    python3 perfbench/selftest.py            # every workload, short runs
    python3 perfbench/selftest.py serve_hot  # named workloads only

Checks that BENCHMARK.json keeps to its rules (keys, name and unit
syntax, bounds, a `setup_s` metric with the widest bound), then runs each workload
briefly with tracing off and on and checks that the last line of stdout
is a result object whose metrics are exactly the declared end-to-end
(resp. per-layer) metrics, with their declared units, finite values and
`correct: true`. Exits non-zero on the first failure.
"""

import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def fail(msg):
    sys.exit(f"selftest: FAIL: {msg}")


def check_manifest(bench):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        fail(f"BENCHMARK.json keys {sorted(bench)} != {sorted(keys)}")
    cmd = bench["command"]
    if not (1 <= len(cmd) <= 32) or any(len(c) > 200 or c.startswith("/") or ".." in c for c in cmd):
        fail("command must be 1..32 relative strings of at most 200 characters")
    if not (1 <= len(bench["paths"]) <= 16) or not all(PATH.match(p) and ".." not in p for p in bench["paths"]):
        fail("paths must be 1..16 relative directories")
    if not (isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60):
        fail("run_seconds must be a whole number in 1..60")
    if not (2 <= len(bench["workloads"]) <= 8):
        fail("need 2..8 workloads")
    names = []
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"workload {w} needs exactly a name and a one-line why")
        names.append(w["name"])
    e2e, layer = bench["end_to_end"], bench["per_layer"]
    if not (1 <= len(e2e) <= 16) or not (1 <= len(layer) <= 128):
        fail("need 1..16 end-to-end and 1..128 per-layer metrics")
    for m in e2e:
        if set(m) != {"name", "unit", "better", "bound"} or not (0 < m["bound"] <= 0.25):
            fail(f"end-to-end metric {m} needs name, unit, better and a bound in (0, 0.25]")
    for m in layer:
        if set(m) != {"name", "unit", "better"}:
            fail(f"per-layer metric {m} needs exactly name, unit and better")
    for m in e2e + layer:
        names.append(m["name"])
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            fail(f"metric {m} has an invalid name, unit or direction")
    if len(names) != len(set(names)):
        fail("a name is used twice")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s (unit s, lower is better) is required")
    if setup[0]["bound"] != max(m["bound"] for m in e2e):
        fail("setup_s must carry the largest bound")
    if len(json.dumps(bench)) > 64 * 1024:
        fail("BENCHMARK.json is over 64 KiB")


def check_run(bench, workload, trace, seconds):
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    args = bench["command"] + ["--workload", workload, "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True:
        fail(f"{workload} trace={trace}: outputs did not check out\n{proc.stderr}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1 and isinstance(result["failed"], int)):
        fail(f"{workload}: attempted/failed must be whole numbers, attempted at least 1")
    got = result["metrics"]
    if set(got) != set(declared):
        fail(f"{workload} trace={trace}: missing {sorted(set(declared) - set(got))}, extra {sorted(set(got) - set(declared))}")
    for name, m in got.items():
        if m["unit"] != declared[name] or not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"{workload}: metric {name} = {m}")
    if not trace:
        zero = [n for n, m in got.items() if m["value"] == 0]
        if zero:
            fail(f"{workload}: end-to-end metrics read 0: {zero}")
    print(f"selftest: {workload} trace={trace}: {len(got)} metrics ok")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_manifest(bench)
    print("selftest: BENCHMARK.json ok")
    wanted = sys.argv[1:] or [w["name"] for w in bench["workloads"]]
    for workload in wanted:
        for trace in (0, 1):
            check_run(bench, workload, trace, seconds=3)
    print("selftest: PASS")


if __name__ == "__main__":
    main()
