#!/usr/bin/env python3
"""What the slow ops of a traced benchmark run carried.

    python3 scripts/tail_attribution.py [SPANS.jsonl ...]

Reads the spans file `perf/run.py --trace 1` writes (one per workload, under
`$CARGO_TARGET_DIR/perf-out/`, default `.bench_build/perf-out/spans-*.jsonl`;
with no argument, every one found there). The benchmark runs a pump before
every 4th op and a maintenance tick before every 64th, inside that op's
clock, and records each as a child span of the op.

Per op kind it prints the p50 and p99 of the op's time and the p99 of its
self time (its time less its children's), then splits the ops above p99 by
what they carried: a tick (with or without a pump), a pump alone, or
nothing. For each group it gives the count and the p50/p99 of the ops' self
time. Last, the percentiles of every tick in the run. Times are in
microseconds.
"""

import glob
import json
import os
import sys


def pct(values, q):
    """The `q`-quantile of `values` by nearest rank (0 when empty)."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def report(path):
    ops = {}  # line index -> {"kind", "us", "children": {name: us}}
    ticks = []
    for i, s in enumerate(load(path)):
        us = (s["end_ns"] - s["start_ns"]) / 1000.0
        if s["parent"] is None:
            if s["name"] != "sync":
                ops[i] = {"kind": s["name"], "us": us, "children": {}}
            continue
        ops[s["parent"]]["children"][s["name"]] = us
        if s["name"] == "tick":
            ticks.append(us)
    print("%s: %d ops, %d ticks" % (path, len(ops), len(ticks)))
    print("  %-7s %7s %9s %9s %9s  %-6s %6s %9s %9s" % (
        "op", "count", "p50", "p99", "self p99", "tail", "ops", "self p50", "self p99"))
    for kind in ("insert", "read", "update", "delete"):
        mine = [o for o in ops.values() if o["kind"] == kind]
        if not mine:
            continue
        times = [o["us"] for o in mine]
        p50, p99 = pct(times, 0.50), pct(times, 0.99)
        own_p99 = pct([o["us"] - sum(o["children"].values()) for o in mine], 0.99)
        tail = [o for o in mine if o["us"] > p99]
        groups = (
            ("tick", [o for o in tail if "tick" in o["children"]]),
            ("pump", [o for o in tail if list(o["children"]) == ["pump"]]),
            ("none", [o for o in tail if not o["children"]]),
        )
        head = "%-7s %7d %9.1f %9.1f %9.1f" % (kind, len(mine), p50, p99, own_p99)
        for name, group in groups:
            own = [o["us"] - sum(o["children"].values()) for o in group]
            print("  %s  %-6s %6d %9.1f %9.1f" % (head, name, len(group), pct(own, 0.5),
                                                 pct(own, 0.99)))
            head = " " * len(head)
    print("  ticks: p50 %.1f  p90 %.1f  p99 %.1f  max %.1f" % (
        pct(ticks, 0.5), pct(ticks, 0.9), pct(ticks, 0.99), max(ticks, default=0.0)))


def main(paths):
    if not paths:
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        paths = sorted(glob.glob(os.path.join(target, "perf-out", "spans-*.jsonl")))
    if not paths:
        sys.exit("no spans file: run `python3 perf/run.py --workload <name> --trace 1` first")
    for path in paths:
        report(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
