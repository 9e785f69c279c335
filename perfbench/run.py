#!/usr/bin/env python3
"""Repository benchmark: build the driver from source, run one workload,
check its outputs, and print one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run configures and builds the
hgp library and perfbench_driver into .bench_build/; later runs rebuild only
what changed. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer metrics, and writes a Chrome trace and a layer ledger
to .bench_build/perfbench-out/. The run fails (non-zero exit) when a job does
not complete, a sampled wire outcome differs from its in-process twin, or
mean_ar leaves the tolerance recorded in perfbench/reference.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
OUT_DIR = os.path.join(BUILD_DIR, "perfbench-out")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
# The whole run must end within 180 s; the first run may also build.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(msg)
    sys.exit(code)


def build():
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # The benchmark builds the program from the checkout it runs in.
    for need in ("CMakeLists.txt", "src", os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(need):
            fail(f"run from the root of a source checkout: '{need}' is missing", 2)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(os.path.join("perfbench", "reference.json")) as f:
        reference = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload '{args.workload}'", 2)

    t0 = time.monotonic()
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    remaining = RUN_TIMEOUT_S - (time.monotonic() - t0)
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(remaining, 60))
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail("driver printed nothing")
    raw = json.loads(lines[-1])

    # Correctness: every job completed, the sampled wire/in-process pair and
    # every repeated or re-traced run bit-identical, mean_ar on reference.
    problems = [k for k, v in raw["checks"].items() if v is False]
    ref = reference["mean_ar"][args.workload]
    if abs(raw["mean_ar"] - ref["value"]) > ref["tol"]:
        problems.append(f"mean_ar {raw['mean_ar']:.6f} outside {ref['value']} +- {ref['tol']}")

    wanted = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            problems.append(f"metric {m['name']} missing or malformed")
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    print("host: " + json.dumps(raw["host"]))
    print(f"checks: {json.dumps(raw['checks'])} mean_ar={raw['mean_ar']:.6f}")
    result = {
        "correct": not problems,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    if problems:
        fail("correctness check failed: " + "; ".join(problems))


if __name__ == "__main__":
    main()
