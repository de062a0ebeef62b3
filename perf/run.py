#!/usr/bin/env python3
"""Entry point of the benchmark named in BENCHMARK.json.

    python3 perf/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perf/run.py --compare A.json B.json

Builds perf/ (a cargo package of its own) into $CARGO_TARGET_DIR (default
.bench_build in the current directory), runs one (workload, seed) pinned to
one CPU when `taskset` is available, and passes the binary's output through;
its last line is the result object. Everything written lives under the
target directory and is removed before exit.

Run length is never a duration: `--seconds` only selects between the two
frozen op-count presets (`full` at or above BENCHMARK.json's run_seconds,
`smoke` below it).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(target_dir):
    """Builds the release binary offline; returns its path."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("perf/run.py: cargo build failed")
    return os.path.join(target_dir, "release", "dbdedup-perf")


def pin_prefix():
    """`taskset -c <cpu>` for the last CPU this process may use, or nothing.

    One client on one thread: pinning removes migrations, and the last CPU
    is the one least likely to serve interrupts. With a single usable CPU
    there is nothing to choose."""
    if shutil.which("taskset") is None or not hasattr(os, "sched_getaffinity"):
        return []
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return []
    return ["taskset", "-c", str(cpus[-1])]


def run(args):
    full_seconds = contract()["run_seconds"]
    preset = "smoke" if args.smoke or args.seconds < full_seconds else "full"
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target_dir)
    # Stores, oplogs and index runs go under the target directory unless
    # PERF_DATA_DIR points elsewhere (a tmpfs, for a developer who wants the
    # host file system out of the numbers).
    base = os.environ.get("PERF_DATA_DIR", os.path.join(target_dir, "perf-data"))
    data_dir = os.path.join(os.path.abspath(base), "run-%d" % os.getpid())
    out_dir = os.path.join(target_dir, "perf-out")
    os.makedirs(out_dir, exist_ok=True)
    pin = pin_prefix()
    cmd = pin + [binary, "--workload", args.workload, "--seed", str(args.seed),
                 "--preset", preset, "--trace", str(args.trace),
                 "--pinned", "1" if pin else "0", "--data-dir", data_dir]
    if args.trace:
        cmd += ["--spans-out", os.path.join(out_dir, "spans-%s.jsonl" % args.workload)]
        # The parallel-ingest probe needs two CPUs, which the pinned run
        # does not have: it runs first, unpinned, in a process of its own.
        probe = [binary, "--workload", args.workload, "--seed", str(args.seed),
                 "--preset", preset, "--data-dir", data_dir, "--pipeline-probe", "1"]
        probed = subprocess.run(probe, stdout=subprocess.PIPE, text=True)
        if probed.returncode != 0:
            return probed.returncode
        cmd += ["--pipeline", probed.stdout.strip()]
    if args.out:
        cmd += ["--out", os.path.abspath(args.out)]
    try:
        done = subprocess.run(cmd)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    return done.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=1e9,
                   help="selects the preset only: full at or above run_seconds, else smoke")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="the smoke preset, whatever --seconds says")
    p.add_argument("--out", help="also save the full report (JSON) here")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = p.parse_args()
    if args.compare:
        sys.path.insert(0, HERE)
        import compare
        return compare.main(args.compare[0], args.compare[1], contract())
    if not args.workload:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
