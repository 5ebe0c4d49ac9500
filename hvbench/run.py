#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 hvbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds hvbench/hvbench.exe from source into .bench_build/ (dune's shared
cache off, so nothing is written outside the checkout), runs it with a
time limit, relays its output, and checks that its last line is a result
object whose metrics are exactly the ones BENCHMARK.json declares for
the mode.  Exits non-zero, without printing a result, when the checkout
holds no simulator to build or any step fails.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "hvbench", "hvbench.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"hvbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args()


def run_bounded(cmd, timeout, env, stdout):
    """Run cmd, killing it (and waiting for it) if it overruns."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{cmd[0]} exceeded {timeout} s")
    return proc.returncode, out


def main():
    args = parse_args()
    for path in ("BENCHMARK.json", "dune-project", "lib", "hvbench/dune"):
        if not os.path.exists(path):
            fail(f"{path} not found: run from the root of a full checkout")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r} (one of {', '.join(workloads)})")
    declared = bench["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.abspath(os.path.join(BUILD_DIR, "xdg-cache"))
    build = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--display", "quiet", "./hvbench/hvbench.exe"]
    code, _ = run_bounded(build, BUILD_TIMEOUT_S, env, sys.stderr)
    if code != 0:
        fail(f"build failed (exit {code})")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, out = run_bounded(cmd, RUN_TIMEOUT_S, env, subprocess.PIPE)
    lines = out.rstrip("\n").split("\n") if out else []
    if lines:
        print("\n".join(lines[:-1]), flush=True)
    if code != 0:
        fail(f"benchmark exited with {code}")
    try:
        result = json.loads(lines[-1])
        names = sorted(result["metrics"])
        ok = (sorted(result) == ["attempted", "correct", "failed", "metrics"]
              and names == sorted(m["name"] for m in declared)
              and all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in declared))
    except (IndexError, ValueError, KeyError, TypeError):
        ok = False
    if not ok:
        fail("the result line does not carry exactly the metrics BENCHMARK.json declares")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
