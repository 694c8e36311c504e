#!/usr/bin/env python3
"""Steadiness helper: runs one workload N times and summarizes each metric.

    python3 perfbench/steady.py --workload fleet [--runs 10] [--seed 1]
        [--seconds 15] [--trace 0] [--out set1.json]
    python3 perfbench/steady.py --compare set1.json set2.json

Run i uses seed (--seed + i), as the benchmark's acceptance check does.
For every metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and
max / min, next to the metric's bound from BENCHMARK.json. A metric whose
spread is over a third of its bound is marked; one over the bound fails
the acceptance check. A run that reports a failed operation is listed and
makes the helper exit 1, but its metrics still count. --out keeps every
run's values; --compare reads two such sets and prints, per metric, how
far the second median moved from the first, marking a move in the worse
direction beyond the bound, which also fails the acceptance check.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("run printed no result (seed %d, exit %d)" %
                 (seed, proc.returncode))


def spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return {m["name"]: m for m in json.load(f).get("end_to_end", [])}
    except (OSError, ValueError):
        return {}


def compare(first_path, second_path):
    """Prints how far each metric's median moved between two saved sets;
    returns the number of metrics that got worse by more than their bound."""
    sets = []
    for path in (first_path, second_path):
        with open(path) as f:
            sets.append(json.load(f)["values"])
    metrics = spec()
    print("%-28s %12s %12s %8s %6s" % ("metric", "median 1", "median 2",
                                        "moved", "bound"))
    bad = 0
    for name in sorted(set(sets[0]) & set(sets[1])):
        m1 = statistics.median(sets[0][name])
        m2 = statistics.median(sets[1][name])
        moved = (m2 - m1) / m1 if m1 else 0.0
        m = metrics.get(name, {})
        b = m.get("bound")
        worse = moved if m.get("better") == "lower" else -moved
        mark = ""
        if b is not None and worse > b:
            mark = " FAIL"
            bad += 1
        print("%-28s %12.6g %12.6g %+8.4f %6s%s" %
              (name, m1, m2, moved, "-" if b is None else b, mark))
    return bad


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", help="file to keep every run's values in")
    p.add_argument("--compare", nargs=2, metavar="SET",
                   help="two files written by --out")
    a = p.parse_args()
    if a.compare:
        return 1 if compare(*a.compare) else 0
    if not a.workload:
        p.error("--workload or --compare is required")

    values = {}
    units = {}
    failed_seeds = []
    for i in range(a.runs):
        result = run_once(a.workload, a.seed + i, a.seconds, a.trace)
        if not result["correct"] or result["failed"]:
            failed_seeds.append(a.seed + i)
            print("seed %d: %d of %d operations failed" %
                  (a.seed + i, result["failed"], result["attempted"]),
                  file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("run %d/%d (seed %d) done" % (i + 1, a.runs, a.seed + i),
              file=sys.stderr)
    if a.out:
        with open(a.out, "w") as f:
            json.dump({"workload": a.workload, "seed": a.seed,
                       "failed_seeds": failed_seeds, "values": values}, f)

    limit = {name: m.get("bound") for name, m in spec().items()}
    print("%-28s %8s %12s %12s %12s %8s %8s %6s" %
          ("metric", "unit", "median", "q1", "q3", "spread", "max/min",
           "bound"))
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        ratio = max(v) / min(v) if min(v) > 0 else float("inf")
        b = limit.get(name)
        mark = ""
        if b is not None:
            mark = " FAIL" if spread > b else (" >b/3" if spread > b / 3 else "")
        print("%-28s %8s %12.6g %12.6g %12.6g %8.4f %8.4f %6s%s" %
              (name, units[name], med, q1, q3, spread, ratio,
               "-" if b is None else b, mark))
    if failed_seeds:
        print("runs with failed operations: seeds %s" %
              " ".join(map(str, failed_seeds)))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
