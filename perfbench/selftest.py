#!/usr/bin/env python3
"""Self-test of the benchmark at minimal size.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs perfbench/run.py with
--size tiny, untraced and traced, and checks that
  * the last stdout line is the result object with exactly the keys
    correct, attempted, failed, metrics, and correct is true;
  * the metrics are exactly the end_to_end (untraced) or per_layer (traced)
    names of BENCHMARK.json, each with its unit and direction;
  * result.json tags every metric counted or timed and carries the host
    fingerprint;
  * a second traced run of the same seed repeats every counted metric
    exactly;
  * the traced run left trace.json and perf_report.json behind.
Exits 1 on the first failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_KEYS = {"nproc", "hardware_concurrency", "rank_threads",
             "slave_pool_workers", "compiler", "flags", "build_type", "git_sha",
             "steal_frac"}


def run(workload, trace, seed=7):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"selftest: {' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    last = json.loads(p.stdout.strip().splitlines()[-1])
    out = os.path.join(ROOT, ".bench_out", f"{workload}-seed{seed}-trace{trace}")
    with open(os.path.join(out, "result.json")) as f:
        return last, json.load(f), out


def check(cond, msg):
    if not cond:
        sys.exit(f"selftest: {msg}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            last, result, out = run(name, trace)
            where = f"{name} trace {trace}"
            check(set(last) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys {sorted(last)}")
            check(last["correct"] and last["failed"] == 0 and last["attempted"] >= 1,
                  f"{where}: not correct: {result['failures']}")
            want = {m["name"]: m["unit"] for m in wanted}
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            check(got == want, f"{where}: emitted {sorted(set(got) ^ set(want))} "
                               "differ from BENCHMARK.json")
            emitted = {m["name"]: m for m in result["end_to_end"] + result["per_layer"]}
            check(all(emitted[m["name"]]["better"] == m["better"] for m in wanted),
                  f"{where}: direction differs from BENCHMARK.json")
            tags = {n: m["kind"] for n, m in emitted.items()}
            check(all(tags.get(n) in ("counted", "timed") for n in want),
                  f"{where}: metric without a counted/timed tag")
            check(HOST_KEYS <= set(result["host"]), f"{where}: host fingerprint")
            if trace:
                for artifact in ("trace.json", "perf_report.json"):
                    with open(os.path.join(out, artifact)) as f:
                        json.load(f)
                again, _, _ = run(name, trace)
                for n, kind in tags.items():
                    if kind == "counted" and n in want:
                        check(again["metrics"][n] == last["metrics"][n],
                              f"{where}: counted {n} did not repeat")
        print(f"selftest: {name} ok")


if __name__ == "__main__":
    main()
