#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the kgaccuracy library and the
benchmark driver from source with CMake into $CARGO_TARGET_DIR (default
.bench_build), runs one workload, and prints the driver's report. The last
line of stdout is the result object, whose metrics are checked against the
`end_to_end` (--trace 0) or `per_layer` (--trace 1) list of BENCHMARK.json.
Exits non-zero when the build fails, a check fails or a metric is missing.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "kgacc_perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def check_result(line, names):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "the last line is not a JSON object"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "the result has the wrong keys"
    if set(result["metrics"]) != set(names):
        return "metrics differ from BENCHMARK.json: " + ", ".join(
            sorted(set(names) ^ set(result["metrics"])))
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no kgaccuracy source tree at {ROOT}")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    names = [m["name"] for m in
             spec["per_layer" if args.trace == "1" else "end_to_end"]]

    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")),
        "perfbench"))
    build(build_dir)

    command = [os.path.join(build_dir, "kgacc_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--spans-out", os.path.join(
            build_dir, f"spans-{args.workload}.json")]
    # A SIGTERM to this script also ends the benchmark it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as run:
        try:
            stdout, _ = run.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
        finally:
            if run.poll() is None:
                run.kill()
                run.wait()
    lines = stdout.rstrip("\n").split("\n")
    problem = check_result(lines[-1], names)
    if problem is not None:
        print(stdout, file=sys.stderr, end="")
        fail(problem, 3)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
