#!/usr/bin/env python3
"""Builds and runs the GEMM benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The binary is built from the checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build output
goes to stderr, so the last line of stdout is the run's JSON result.
--selftest runs every workload briefly and checks that it reports every
metric BENCHMARK.json names, with its unit, besides the binary's own
assertions.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_JOBS = 4


def build():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT, base, "perfbench")
    jobs = str(max(1, min(os.cpu_count() or 1, BUILD_JOBS)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", "1", "--seconds", "1",
             "--trace", "1", "--selftest"],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        metrics = result.get("metrics", {})
        problems = []
        if proc.returncode != 0:
            problems.append("exit code %d" % proc.returncode)
        if result.get("correct") is not True:
            problems.append("outputs failed the check")
        for name, unit in declared.items():
            got = metrics.get(name)
            if got is None:
                problems.append("missing metric " + name)
            elif got.get("unit") != unit:
                problems.append("%s has unit %r, not %r"
                                % (name, got.get("unit"), unit))
        for name in sorted(set(metrics) - set(declared)):
            problems.append("undeclared metric " + name)
        print("%s: %s" % (workload, "ok" if not problems
                          else "; ".join(problems)))
        ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 3
    if args.selftest:
        return selftest(binary)
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace],
        timeout=RUN_TIMEOUT_S)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
