#!/usr/bin/env python3
"""Builds and runs the NAAS benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the root of a source tree. It builds perfbench/ (the library
from ../src plus the driver, optimised) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs the benchmark's self-tests, then runs
the driver. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json under --trace 0 and every
per-layer metric under --trace 1. Besides the workloads of BENCHMARK.json
the driver runs cosearch and serve-mixed, which are not gated
(perfbench/config.json says why). The exit code is non-zero when the
build, a self-test or a correctness check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured when the tree is not a git checkout."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".py", ".txt", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit_id():
    """The commit checked out at ROOT, or "none" when ROOT is not the top
    of a git work tree (a plain source checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, env=env)
        lines = out.stdout.split()
        if (out.returncode == 0 and len(lines) == 2
                and os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             env=env)
        if res.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    kind = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in bench[kind]]

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    build(build_dir)

    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=60)
    if selftest.returncode != 0:
        fail("self-tests failed")

    cmd = [
        os.path.join(build_dir, "perfbench_driver"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", os.path.join(target, "perfbench-run"),
        "--commit", f"{commit_id()} src-sha256:{source_digest()}",
    ]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    lines = res.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("driver printed no result")
    got = sorted(result.get("metrics", {}))
    if got != sorted(wanted):
        fail(f"driver reported metrics {got}, "
             f"BENCHMARK.json lists {sorted(wanted)}")
    print(lines[-1], flush=True)
    if res.returncode != 0 or not result.get("correct"):
        fail("correctness check failed")


if __name__ == "__main__":
    main()
