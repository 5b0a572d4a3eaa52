#!/usr/bin/env python3
"""Steadiness and comparison runs of the host-performance benchmark.

    python3 perfbench/steady.py [--workloads native,cross_isa,fleet]
        [--runs 10] [--first-seed 1] [--seconds S] [--trace 0|1]
        [--other PATH]

Runs perfbench/run.py N times per workload, each with its own seed, and
prints for every metric the median, the quartiles (as
statistics.quantiles(n=4) gives them), the interquartile range and
(max - min) as shares of the median, and the metric's bound from
BENCHMARK.json. A metric is flagged when either share exceeds its bound.

With --other PATH (a second checkout, e.g. of the parent commit) every
seed runs on both checkouts, alternating which goes first, and the
report adds the other side's median and quartiles and the share of
pairs this checkout won. Every result is kept under .bench_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(checkout, workload, seed, seconds, trace):
    env = dict(os.environ)
    if checkout != ROOT and os.path.isabs(env.get("CARGO_TARGET_DIR", "")):
        del env["CARGO_TARGET_DIR"]  # each checkout builds its own tree
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                       text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit(f"steady: {workload} seed {seed} in {checkout} exited "
                 f"with code {r.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    scale = abs(mid) if mid else 1.0
    return mid, q1, q3, (q3 - q1) / scale, (max(values) - min(values)) / scale


def main():
    p = argparse.ArgumentParser(prog="perfbench/steady.py")
    p.add_argument("--workloads", default="native,cross_isa,fleet")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--other")
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = a.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sides = [ROOT] + ([os.path.abspath(a.other)] if a.other else [])

    log = []
    for workload in a.workloads.split(","):
        results = {side: [] for side in sides}
        for i in range(a.runs):
            seed = a.first_seed + i
            order = sides if i % 2 == 0 else sides[::-1]
            for side in order:
                res = run_once(side, workload, seed, seconds, a.trace)
                results[side].append(res)
                log.append({"checkout": side, "workload": workload,
                            "seed": seed, "result": res})
                ok = "ok" if res["correct"] else "INCORRECT"
                print(f"{workload} seed {seed} {os.path.basename(side)}: "
                      f"{ok} ({res['failed']}/{res['attempted']} failed)",
                      file=sys.stderr)

        mine = results[ROOT]
        print(f"\n== {workload}: {a.runs} runs, seeds {a.first_seed}.."
              f"{a.first_seed + a.runs - 1}, {seconds} s each")
        head = (f"{'metric':28} {'unit':9} {'median':>12} {'q1':>12} "
                f"{'q3':>12} {'iqr/med':>8} {'rng/med':>8} {'bound':>6}")
        if a.other:
            head += f" {'other med':>12} {'change':>8} {'wins':>5}"
        print(head)
        for name in mine[0]["metrics"]:
            unit = mine[0]["metrics"][name]["unit"]
            vals = [r["metrics"][name]["value"] for r in mine]
            mid, q1, q3, iqr, rng = spread(vals)
            bound = bounds.get(name, {}).get("bound")
            line = (f"{name:28} {unit:9} {mid:12.6g} {q1:12.6g} "
                    f"{q3:12.6g} {iqr:8.3f} {rng:8.3f} "
                    f"{bound if bound is not None else '-':>6}")
            if a.other:
                theirs = [r["metrics"][name]["value"]
                          for r in results[sides[1]]]
                omid = statistics.median(theirs)
                lower = bounds.get(name, {}).get("better", "lower") == "lower"
                wins = sum((m < o) if lower else (m > o)
                           for m, o in zip(vals, theirs))
                change = (mid / omid - 1) if omid else 0.0
                line += f" {omid:12.6g} {change:+8.3f} {wins:2}/{len(vals)}"
            if bound is not None and iqr > bound:
                line += "  FLAG iqr>bound"
            elif bound is not None and rng > bound:
                line += "  FLAG range>bound"
            print(line)
        bad = sum(not r["correct"] for side in sides for r in results[side])
        print(f"incorrect runs: {bad}")

    out = os.path.join(ROOT, ".bench_out",
                       time.strftime("steady-%Y%m%d-%H%M%S.json"))
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(log, f)
    print(f"\nresults: {out}")


if __name__ == "__main__":
    main()
