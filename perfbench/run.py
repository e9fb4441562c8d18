#!/usr/bin/env python3
"""Builds and runs the nextmaint benchmark suite.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--trace-out FILE] [--smoke]

Run it from anywhere inside a checkout of the repository. The first run
configures and builds perfbench/bench_suite (Release) under .bench_build/
at the checkout root; later runs only confirm the build is current. Build
output goes to standard error, so the last line of standard output is the
run's JSON summary (see perfbench/README.md). The exit code is 0 only when
every correctness check passed, no operation failed and the summary names
exactly the metrics and units BENCHMARK.json lists for the run's kind.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "bench_suite")
# One run must end within 180 s; leave room for process start-up.
RUN_TIMEOUT_S = 170
# Variables that would arm fault injection or telemetry inside the timed
# program, or that the older benches read.
SCRUBBED_ENV_PREFIXES = ("NEXTMAINT_",)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_build_step(command):
    result = subprocess.run(command, cwd=ROOT, stdout=sys.stderr)
    if result.returncode != 0:
        fail("build step failed: " + " ".join(command))


def build():
    for required in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, required)):
            fail("no nextmaint sources to build: %s is missing" %
                 os.path.join(ROOT, required))
    if shutil.which("cmake") is None:
        fail("cmake is not on PATH")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_build_step(["cmake", "--build", BUILD_DIR, "--target", "bench_suite",
                    "-j", jobs])


def check_summary(output, traced):
    """The summary line holds exactly BENCHMARK.json's metrics of the run's
    kind, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    expected = {m["name"]: m["unit"]
                for m in benchmark["per_layer" if traced else "end_to_end"]}
    lines = output.strip().splitlines()
    try:
        summary = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        summary = {}
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        fail("bench_suite printed no summary line")
    got = {name: metric["unit"] for name, metric in summary["metrics"].items()}
    if got != expected:
        fail("summary metrics do not match BENCHMARK.json: %s" %
             sorted(set(got.items()) ^ set(expected.items())))


def main():
    build()
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(SCRUBBED_ENV_PREFIXES)}
    try:
        result = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("bench_suite ran longer than %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    if result.returncode == 0:
        traced = any(a == "--trace" and b == "1"
                     for a, b in zip(sys.argv, sys.argv[1:]))
        check_summary(result.stdout, traced)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
