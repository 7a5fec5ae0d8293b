#!/usr/bin/env python3
"""End-to-end benchmark for HPDR.

Builds the benchmark package in this directory (which compiles the library
from ../src) and runs one workload:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest     # decorator transparency test

Run from the repository root. Build output goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) and to stderr. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics; its
metrics are exactly those BENCHMARK.json lists (end_to_end with --trace 0,
per_layer with --trace 1). Exit code: 0 on success, 1 when an output failed
its check, 2 on bad arguments, 3 when the build fails, 4 when the program's
report does not match BENCHMARK.json or the program did not finish.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("checkpoint-lossy", "checkpoint-lossless", "serve-zipf")
RUN_TIMEOUT_S = 170


def build(target):
    bdir = os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                        "perfbench")
    configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", bdir, "--target", target, "-j", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(3)
    return bdir


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        bdir = build("perfbench_decorator_test")
        sys.exit(subprocess.run([os.path.join(bdir, "perfbench_decorator_test")]).returncode)
    if args.workload is None:
        ap.error("--workload is required")

    expected = declared_metrics(args.trace)
    bdir = build("perfbench")
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", bdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        sys.exit(4)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: program exited with {proc.returncode}", file=sys.stderr)
        sys.exit(4)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        got = list(result["metrics"])
    except (ValueError, KeyError, TypeError):
        print("perfbench: last line is not a result: " + lines[-1], file=sys.stderr)
        sys.exit(4)
    if sorted(got) != sorted(expected):
        print("perfbench: reported metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(expected) - set(got))}, "
              f"extra {sorted(set(got) - set(expected))}", file=sys.stderr)
        sys.exit(4)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
