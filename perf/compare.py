"""`run.py --compare A B`: is B worse than A, metric by metric?

A and B are set files written by baseline.py (or two directories of them,
compared workload by workload). A is the parent. For every end-to-end metric
of BENCHMARK.json the row shows both medians, the change in the metric's
"worse" direction as a share of A's median, the wider of the two sets'
spreads ((q3 - q1) / median), the bound, and a verdict:

  unresolved  a set's spread is wider than the bound: the runs cannot tell
  worse       B's median is worse than A's by more than the bound
  better      B's median is better than A's by more than A's own spread
  same        anything else

Metrics without a bound (per-layer) are listed with their change only.
Exit status is 1 if any row is `worse`, 2 if the two sides were not measured
alike (cores, pinning, file system, preset, attempted ops, tracing).
"""

import json
import os
import sys

ALIKE = ("workload", "cores", "usable_cores", "pinned", "fs", "preset", "attempted", "trace")


def load(path):
    with open(path) as f:
        return json.load(f)


def pairs(a_path, b_path):
    if os.path.isdir(a_path) and os.path.isdir(b_path):
        names = sorted(n for n in os.listdir(a_path)
                       if n.endswith(".json") and ".set" not in n
                       and os.path.exists(os.path.join(b_path, n)))
        return [(os.path.join(a_path, n), os.path.join(b_path, n)) for n in names]
    return [(a_path, b_path)]


def compare_sets(a, b, bounds):
    """Prints the rows of one workload; returns how many are `worse`."""
    for key in ALIKE:
        if a.get(key) != b.get(key):
            print("cannot compare: %s is %r in A and %r in B" % (key, a.get(key), b.get(key)))
            sys.exit(2)
    print("%s  preset=%s cores=%s pinned=%s fs=%s attempted=%s" % (
        a["workload"], a["preset"], a["cores"], a["pinned"], a["fs"], a["attempted"]))
    print("  %-36s %14s %14s %9s %8s %7s  %s" % (
        "metric", "A median", "B median", "worse by", "spread", "bound", "verdict"))
    worse = 0
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        med_a, med_b = ma["median"], mb["median"]
        spread = max(ma["spread"], mb["spread"])
        rule = bounds.get(name)
        if rule is None:
            change = (med_b - med_a) / med_a if med_a else 0.0
            print("  %-36s %14.6g %14.6g %+8.2f%% %7.2f%%" % (
                name, med_a, med_b, 100 * change, 100 * spread))
            continue
        sign = 1.0 if rule["better"] == "lower" else -1.0
        worse_by = sign * (med_b - med_a) / med_a if med_a else 0.0
        if spread > rule["bound"]:
            verdict = "unresolved"
        elif worse_by > rule["bound"]:
            verdict = "worse"
            worse += 1
        elif -worse_by > ma["spread"]:
            verdict = "better"
        else:
            verdict = "same"
        print("  %-36s %14.6g %14.6g %+8.2f%% %7.2f%% %6.1f%%  %s" % (
            name, med_a, med_b, 100 * worse_by, 100 * spread, 100 * rule["bound"], verdict))
    return worse


def main(a_path, b_path, contract):
    bounds = {m["name"]: m for m in contract["end_to_end"]}
    worse = sum(compare_sets(load(a), load(b), bounds) for a, b in pairs(a_path, b_path))
    return 1 if worse else 0
