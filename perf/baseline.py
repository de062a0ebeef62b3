#!/usr/bin/env python3
"""Measures sets of runs and writes them where `run.py --compare` reads them.

    python3 perf/baseline.py --out-dir perf/baseline            # two sets of ten
    python3 perf/baseline.py --sets 1 --out-dir /some/dir       # one set, to compare

Each run of a set uses another seed (set k uses seeds 10k+1 .. 10k+runs); the
sets alternate run by run, so drift of the machine lands on both. For every
(workload, end-to-end metric) a set records the values, their median and
quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median that the driver holds against the metric's bound.

Files written: <out-dir>/<workload>.json (set 0, the baseline `--compare`
takes as A or B), <out-dir>/<workload>.set<k>.json for further sets, and
<out-dir>/runs.md, the table of every run made.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, trace, out_dir):
    out = os.path.join(out_dir, ".report.json")
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--out", out]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        sys.exit("run failed: %s" % " ".join(cmd))
    with open(out) as f:
        report = json.load(f)
    os.remove(out)
    return report


def summarise(workload, reports):
    first = reports[0]
    same = ("preset", "cores", "usable_cores", "pinned", "fs", "attempted", "trace")
    for r in reports:
        for key in same:
            if r[key] != first[key]:
                sys.exit("%s: %s differs between runs of one set" % (workload, key))
    metrics = {}
    for name, m in first["metrics"].items():
        values = [r["metrics"][name]["value"] for r in reports]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        med = statistics.median(values)
        metrics[name] = {
            "unit": m["unit"], "values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "min_to_max": (max(values) - min(values)) / med if med else 0.0,
        }
    summary = {key: first[key] for key in same}
    summary.update({
        "workload": workload,
        "seeds": [r["seed"] for r in reports],
        "correct": all(r["correct"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "disturbed_runs": [r["seed"] for r in reports if r["disturbed"]],
        "measured_s_median": statistics.median(r["measured_s"] for r in reports),
        "samples_min": {k: min(r["samples"][k] for r in reports) for k in first["samples"]},
        "metrics": metrics,
    })
    return summary


def table(sets_by_workload):
    lines = ["# Every run made for this baseline", "",
             "One row per run; sets alternate. Spread is (q3 - q1) / median over a set's",
             "runs, each run with another seed.", ""]
    for workload, sets in sets_by_workload.items():
        names = list(sets[0]["metrics"])
        lines += ["## %s" % workload, "",
                  "| set | seed | " + " | ".join(names) + " |",
                  "|---|---|" + "---|" * len(names)]
        for k, s in enumerate(sets):
            for i, seed in enumerate(s["seeds"]):
                row = ["%.6g" % s["metrics"][n]["values"][i] for n in names]
                flag = " (disturbed)" if seed in s["disturbed_runs"] else ""
                lines.append("| %d | %d%s | %s |" % (k, seed, flag, " | ".join(row)))
        for k, s in enumerate(sets):
            lines.append("| %d | median | %s |" % (
                k, " | ".join("%.6g" % s["metrics"][n]["median"] for n in names)))
            lines.append("| %d | spread | %s |" % (
                k, " | ".join("%.2f%%" % (100 * s["metrics"][n]["spread"]) for n in names)))
            lines.append("| %d | min-to-max | %s |" % (
                k, " | ".join("%.2f%%" % (100 * s["metrics"][n]["min_to_max"]) for n in names)))
        if len(sets) > 1:
            gap = []
            for n in names:
                a, b = sets[0]["metrics"][n]["median"], sets[1]["metrics"][n]["median"]
                gap.append("%.2f%%" % (100 * abs(b - a) / a) if a else "0")
            lines.append("| 0-1 | median gap | %s |" % " | ".join(gap))
        lines.append("")
    return "\n".join(lines)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in contract["workloads"]])
    args = p.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)
    summaries = {}
    for workload in args.workloads:
        reports = [[] for _ in range(args.sets)]
        for i in range(args.runs):
            for k in range(args.sets):
                seed = 10 * k + i + 1
                reports[k].append(one_run(workload, seed, args.trace, args.out_dir))
                print("%s set %d seed %d done" % (workload, k, seed), file=sys.stderr)
        summaries[workload] = [summarise(workload, r) for r in reports]
        for k, s in enumerate(summaries[workload]):
            suffix = "" if k == 0 else ".set%d" % k
            kind = ".layers" if args.trace else ""
            with open(os.path.join(args.out_dir, workload + kind + suffix + ".json"), "w") as f:
                json.dump(s, f, indent=1)
                f.write("\n")
    name = "runs.layers.md" if args.trace else "runs.md"
    with open(os.path.join(args.out_dir, name), "w") as f:
        f.write(table(summaries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
