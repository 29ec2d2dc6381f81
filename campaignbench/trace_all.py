#!/usr/bin/env python3
"""Traced run of every workload: per-layer metrics side by side.

Usage (from the repository root):

    python3 campaignbench/trace_all.py [--seed N] [--workloads a,b]

Runs the benchmark with `--trace 1` once per workload, for the run length
in BENCHMARK.json, and prints one row per per-layer metric and one column
per workload (values per pass of the matrix). Each run also writes its
spans to campaignbench/work/spans-<workload>-<seed>.json; the table is
saved to campaignbench/work/layers.json. Exits 1 if any run fails or
reports an incorrect output.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    results = {}
    ok = True
    for w in workloads:
        proc = subprocess.run(
            [*spec["command"], "--workload", w, "--seed", str(args.seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "1"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w}: exit {proc.returncode}, no result", file=sys.stderr)
            return 1
        results[w] = json.loads(lines[-1])
        ok = ok and results[w]["correct"] and results[w]["failed"] == 0

    names = [m["name"] for m in spec["per_layer"]]
    print(f"{'metric':<30} {'unit':<6} " + " ".join(f"{w:>14}" for w in workloads))
    for name in names:
        unit = results[workloads[0]]["metrics"][name]["unit"]
        cells = [results[w]["metrics"][name]["value"] for w in workloads]
        print(f"{name:<30} {unit:<6} " + " ".join(f"{v:>14.6g}" for v in cells))
    print(" " * 38 + " ".join(
        f"{results[w]['failed']:>7}/{results[w]['attempted']:<6}" for w in workloads)
        + "  failed/attempted")
    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    with open(os.path.join(HERE, "work", "layers.json"), "w") as f:
        json.dump(results, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
