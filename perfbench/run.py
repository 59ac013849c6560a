#!/usr/bin/env python3
"""End-to-end benchmark of the coupled MD-KMC simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cascade --seed 1 --seconds 35 --trace 0

Builds perfbench/ (driver + the program's modules from src/) into
.bench_build/perfbench, runs one workload for --seconds through the driver,
prints every metric by name with its unit and tag, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones, and
then also leaves trace.json and perf_report.json beside result.json in
.bench_out/<workload>-seed<N>-trace1/. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
DRIVER_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd):
    """Run a build step with its output on stderr (stdout ends in the result)."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"program sources not found under {ROOT}/src", 2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                       "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs]) != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "mmd_perfbench")


def merge_artifacts(out_dir, result):
    """Add the driver's spans to the Chrome trace (own process track) and the
    attribution residual and trace overhead to the perf report."""
    trace_path = os.path.join(out_dir, "trace.json")
    with open(trace_path) as f:
        trace = json.load(f)
    pid = 1 + max((e.get("pid", 0) for e in trace["traceEvents"]
                   if isinstance(e.get("pid"), int)), default=0)
    trace["traceEvents"].append({"name": "process_name", "ph": "M", "pid": pid,
                                 "tid": 0, "args": {"name": "perfbench driver"}})
    for s in result["bench_spans"]:
        trace["traceEvents"].append({
            "name": s["name"], "ph": "X", "pid": pid, "tid": 0,
            "ts": s["t0_ns"] / 1e3, "dur": (s["t1_ns"] - s["t0_ns"]) / 1e3})
    with open(trace_path, "w") as f:
        json.dump(trace, f)

    perf_path = os.path.join(out_dir, "perf_report.json")
    with open(perf_path) as f:
        perf = json.load(f)
    layer = {m["name"]: m for m in result["per_layer"]}
    perf["perfbench"] = {
        "workload": result["workload"], "seed": result["seed"],
        "core.unattributed_s": layer["core.unattributed_s"]["value"],
        "telemetry.trace_overhead": layer["telemetry.trace_overhead"]["value"],
        "host": result["host"]}
    with open(perf_path, "w") as f:
        json.dump(perf, f, indent=1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: minimal problems, for the self-test")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    binary = build()
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload '{args.workload}'", 2)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = os.path.join(
        OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out_dir, "--size", args.size]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    if code != 0:
        fail(f"driver exited with code {code}")
    with open(os.path.join(out_dir, "result.json")) as f:
        result = json.load(f)
    if args.trace:
        merge_artifacts(out_dir, result)

    emitted = {m["name"]: m for m in result["end_to_end"] + result["per_layer"]}
    correct = result["failed"] == 0
    metrics = {}
    host = result["host"]
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['problems']} problems in {time.monotonic() - t0:.1f} s; "
          f"host nproc={host['nproc']} hw={host['hardware_concurrency']} "
          f"rank_threads={host['rank_threads']} "
          f"pool_workers={host['slave_pool_workers']} {host['compiler']} "
          f"{host['build_type']} [{host['flags']}] sha={host['git_sha']} "
          f"steal={host['steal_frac']:.3f}")
    for w in wanted:
        m = emitted.get(w["name"])
        if m is None or m["unit"] != w["unit"]:
            fail(f"metric {w['name']} [{w['unit']}] not emitted by the driver")
        v = m["value"]
        if not math.isfinite(v) or ("bound" in w and v <= 0):
            correct = False
        print(f"  {m['name']:<28} {v:>16.6g} {m['unit']:<14} {m['kind']}")
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    for msg in result["failures"]:
        print(f"  check failed: {msg}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
