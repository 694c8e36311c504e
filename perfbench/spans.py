#!/usr/bin/env python3
"""Span summarizer for a traced benchmark run.

    python3 perfbench/spans.py .bench_build/traces/fleet-seed1-trace1.jsonl
        [--untraced .bench_build/results/fleet-seed1-trace0.json]

Prints, per span name, the count, items (keys or rows), total time, self
time (duration minus the time covered by child spans) and time per item,
then the layers under each kind of request with their share of it. The
tracing overhead is the traced run's query_s minus the untraced run's, taken
from --untraced or, when omitted, from the untraced results run.py kept next
to the traces directory (same seed if there is one, else their median).
run.py prints this summary after every traced run.
"""
import argparse
import collections
import json
import os
import statistics


def load(path):
    meta, spans = {}, []
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if "meta" in rec:
                meta = rec["meta"]
            else:
                spans.append(rec)
    return meta, spans


def summarize(spans):
    child_s = collections.defaultdict(float)
    for s in spans:
        if s["parent"]:
            child_s[s["parent"]] += (s["end_ns"] - s["start_ns"]) * 1e-9
    totals = collections.OrderedDict()
    for s in sorted(spans, key=lambda s: s["name"]):
        t = totals.setdefault(s["name"], {"count": 0, "items": 0, "total": 0.0,
                                          "self": 0.0})
        dur = (s["end_ns"] - s["start_ns"]) * 1e-9
        t["count"] += 1
        t["items"] += s["items"]
        t["total"] += dur
        t["self"] += dur - child_s.get(s["id"], 0.0)
    return totals


def request_breakdown(spans):
    """Self time of each layer under each root request span name."""
    by_id = {s["id"]: s for s in spans}
    child_s = collections.defaultdict(float)
    for s in spans:
        if s["parent"]:
            child_s[s["parent"]] += (s["end_ns"] - s["start_ns"]) * 1e-9
    out = collections.defaultdict(lambda: collections.defaultdict(float))
    for s in spans:
        if not s["request"]:
            continue
        root = s
        while root["parent"] and root["parent"] in by_id:
            root = by_id[root["parent"]]
        dur = (s["end_ns"] - s["start_ns"]) * 1e-9
        out[root["name"]][s["name"]] += dur - child_s.get(s["id"], 0.0)
    return out


def untraced_query_s(trace_path, meta, explicit):
    """The untraced query_s to compare with, and where it came from: the
    explicit result file, else the untraced result of the same workload and
    seed, else the median over every untraced result of the workload."""
    if explicit:
        paths = [explicit]
    else:
        results = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(trace_path))), "results")
        prefix = "%s-seed" % meta.get("workload")
        same = os.path.join(results, "%s%s-trace0.json" %
                            (prefix, meta.get("seed")))
        paths = [same] if os.path.exists(same) else sorted(
            os.path.join(results, n) for n in (os.listdir(results)
                                               if os.path.isdir(results) else [])
            if n.startswith(prefix) and n.endswith("-trace0.json"))
    values = []
    for path in paths:
        try:
            with open(path) as f:
                values.append(json.loads(f.read().strip().splitlines()[-1])[
                    "metrics"]["query_s"]["value"])
        except (OSError, ValueError, KeyError, IndexError):
            pass
    if not values:
        return None, "no untraced result of this workload"
    if len(values) == 1:
        return values[0], paths[0]
    return statistics.median(values), "median of %d untraced runs" % len(values)


def report(trace_path, untraced=None):
    """The summary of one trace file, as text."""
    meta, spans = load(trace_path)
    out = ["workload %s, seed %s, %d spans" %
           (meta.get("workload"), meta.get("seed"), len(spans))]
    out.append("\n%-22s %9s %12s %10s %10s %10s" %
               ("span", "count", "items", "total_s", "self_s", "ns/item"))
    for name, t in summarize(spans).items():
        per = t["total"] * 1e9 / t["items"] if t["items"] else 0.0
        out.append("%-22s %9d %12d %10.4f %10.4f %10.1f" %
                   (name, t["count"], t["items"], t["total"], t["self"], per))
    for root, layers in request_breakdown(spans).items():
        total = sum(layers.values())
        out.append("\nrequests '%s': %.4f s in total" % (root, total))
        for name, s in sorted(layers.items(), key=lambda kv: -kv[1]):
            out.append("  %-20s self %10.4f s  %5.1f%%" %
                       (name, s, 100 * s / total if total else 0))
    traced = float(meta.get("traced_query_s", "nan"))
    base, source = untraced_query_s(trace_path, meta, untraced)
    out.append("\ntracing overhead: traced query_s %.6g s" % traced)
    if base is None:
        out.append("  %s yet; run it with --trace 0 to compare" % source)
    else:
        out.append("  untraced query_s %.6g s (%s)" % (base, source))
        out.append("  overhead %+.6g s (%+.2f%%)" %
                   (traced - base, 100 * (traced - base) / base))
    return "\n".join(out)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("trace")
    p.add_argument("--untraced", default=None)
    a = p.parse_args()
    print(report(a.trace, a.untraced))


if __name__ == "__main__":
    main()
