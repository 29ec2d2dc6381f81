#!/usr/bin/env python3
"""Steadiness check: two separate sets of benchmark runs must agree.

Usage (from the repository root):

    python3 campaignbench/steady.py [--workloads a,b] [--first-seed S] [--out FILE]

Runs every workload ten times in each of two sets, one after the other,
each run with its own seed (from `--first-seed` up, default 1), using
the command and run length in BENCHMARK.json. For every end-to-end
metric it prints each set's median, first and third quartile, and the
spread (Q3 - Q1) / median. The sets agree when:

- every spread is within the metric's bound;
- the second set's median is within the bound of the first set's, in
  either direction;
- the share of failed operations is exactly the same in every run.

Exits 0 when every workload agrees, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2
REPS = 10


def run_once(spec, workload, seed, seconds):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}, no result")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - started
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(metric, first, later):
    """Relative change of `later` against `first`, positive when worse."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="write every run's result here as JSON")
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    runs = {w: [[] for _ in range(SETS)] for w in workloads}
    seed = args.first_seed
    for k in range(SETS):
        for w in workloads:
            for _ in range(REPS):
                r = run_once(spec, w, seed, spec["run_seconds"])
                r["seed"] = seed
                runs[w][k].append(r)
                print(f"set {k + 1} {w} seed {seed}: {r['wall_s']:.1f} s, "
                      f"correct={r['correct']} failed={r['failed']}/{r['attempted']} "
                      + " ".join(f"{m}={v['value']:.6g}" for m, v in r["metrics"].items()),
                      flush=True)
                seed += 1

    all_agree = True
    for w in workloads:
        print(f"\n{w}")
        agree = True
        shares = {r["failed"] / r["attempted"] for s in runs[w] for r in s}
        if len(shares) != 1:
            agree = False
            print(f"  failed share differs between runs: {sorted(shares)}")
        if not all(r["correct"] for s in runs[w] for r in s):
            agree = False
            print("  some run reported incorrect output")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in s]) for s in runs[w]]
            for k, st in enumerate(stats):
                drift = worse_by(metric, stats[0]["median"], st["median"])
                ok = st["spread"] <= bound and abs(drift) <= bound
                agree = agree and ok
                print(f"  {name:<12} set {k + 1}: median {st['median']:.6g} "
                      f"q1 {st['q1']:.6g} q3 {st['q3']:.6g} "
                      f"spread {st['spread']:.3f} (bound {bound}, third {bound / 3:.3f}) "
                      f"worse-than-set-1 {drift:+.3f}  {'ok' if ok else 'NOT OK'}")
        print(f"  sets agree: {'yes' if agree else 'NO'}")
        all_agree = all_agree and agree
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
