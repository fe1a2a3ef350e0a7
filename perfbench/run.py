#!/usr/bin/env python3
"""Build and run the memstress benchmark for one workload.

    python3 perfbench/run.py --workload evaluate_cold|serve_cold \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The program is built from ../src into
.bench_build/perfbench (RelWithDebInfo, the repository's default); every
MEMSTRESS_* variable is cleared before the harness runs, so the default solver,
no checkpoint directory, no chaos and no metrics toggle are what get measured.
The last line of stdout is the result:
    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
End-to-end metrics with --trace 0, per-layer metrics with --trace 1 (spans are
written under .bench_build/perfbench/out). The exit code is 0 only when every
output matched the reference.
"""
import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(BUILD_DIR, "out")
WORKLOADS = ("evaluate_cold", "serve_cold")
OPTIMIZED_BUILDS = ("Release", "RelWithDebInfo")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench: " + message)
    sys.exit(2)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cache_entries():
    entries = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as cache:
        for line in cache:
            match = re.match(r"^([A-Za-z_0-9]+):[A-Z]+=(.*)$", line.rstrip("\n"))
            if match:
                entries[match.group(1)] = match.group(2)
    return entries


def build(targets):
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(nproc()), "--target"]
                   + targets, check=True, stdout=sys.stderr)
    cache = cache_entries()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(cache.get(key, "") for key in
                     ("CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_" + build_type.upper()))
    if build_type not in OPTIMIZED_BUILDS or "-fsanitize" in flags or \
            cache.get("MEMSTRESS_SANITIZE"):
        fail("refusing to measure a %s build (flags '%s')" % (build_type or "unset", flags))
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    return "nproc %d, compiler %s, build %s, flags '%s'" % (
        nproc(), version[0] if version else compiler, build_type, flags.strip())


def pinned_environment():
    env = {k: v for k, v in os.environ.items() if not k.startswith("MEMSTRESS_")}
    for name in ("MEMSTRESS_SOLVER", "MEMSTRESS_CHECKPOINT_DIR", "MEMSTRESS_CHAOS",
                 "MEMSTRESS_METRICS", "MEMSTRESS_THREADS"):
        was = os.environ.get(name)
        log("env %s: unset%s" % (name, "" if was is None else " (was %r)" % was))
    return env


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json promises, when it is present."""
    try:
        with open("BENCHMARK.json") as spec:
            declared = json.load(spec)
    except (OSError, ValueError):
        return None
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1 or \
            not isinstance(result["failed"], int):
        raise ValueError("attempted/failed must be whole numbers, attempted >= 1")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)) or not math.isfinite(metric["value"]):
            raise ValueError("metric %s is not a finite number" % name)
    expected = expected_metrics(trace)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            raise ValueError("metrics differ from BENCHMARK.json: %s" % sorted(
                set(got.items()) ^ set(expected.items())))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt",
                   "perfbench/reference/default_grid.csv"):
        if not os.path.exists(needed):
            fail("%s not found; run from the root of a memstress checkout" % needed)

    if args.selftest:
        build(["perfbench_selftest"])
        env = pinned_environment()
        return subprocess.run(["ctest", "--test-dir", BUILD_DIR, "--output-on-failure"],
                              env=env).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    host = build(["perfbench"])
    env = pinned_environment()
    log("host: " + host)
    os.makedirs(OUT_DIR, exist_ok=True)
    command = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--reference", "perfbench/reference",
               "--out", OUT_DIR, "--threads", str(nproc())]
    try:
        run = subprocess.run(command, env=env, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as timeout:
        partial = timeout.stdout or b""
        sys.stdout.write(partial.decode() if isinstance(partial, bytes) else partial)
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError, TypeError) as error:
        print(lines[-1])
        fail("malformed result (%s), harness exit code %d" % (error, run.returncode))
    if args.trace:
        log("spans: %s/spans-%s-%d.jsonl" % (OUT_DIR, args.workload, args.seed))
    print(lines[-1])
    if run.returncode != 0 or not result["correct"]:
        log("perfbench: output mismatch (exit code %d)" % run.returncode)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
