#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny sizes (about a minute).

    python3 e2ebench/smoke.py

For every workload, untraced and traced, it checks that the run is correct
and prints every metric BENCHMARK.json names, with the declared unit.  It
checks that the simulator counts repeat exactly for a seed, and that the
correctness gate trips (non-zero exit, naming workload, instance and seed)
on a forged disagreement.  Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402

REPEATABLE = ("msgs_per_decision", "bytes_per_decision", "decide_rounds_mean")


def bench(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0", "--trace",
           str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def result(proc, what):
    if proc.returncode != 0:
        fail(f"{what} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    end_to_end, per_layer = run.metric_lists()
    for workload in run.ALL_WORKLOADS:
        untraced = None
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            what = f"{workload} trace={trace}"
            res = result(bench(workload, 7, trace), what)
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{what}: result keys {sorted(res)}")
            if res["correct"] is not True or res["attempted"] < 1:
                fail(f"{what}: not correct or nothing attempted: {res}")
            for m in wanted:
                got = res["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    fail(f"{what}: metric {m['name']} missing or unit wrong")
                if not isinstance(got["value"], (int, float)):
                    fail(f"{what}: metric {m['name']} is not a number")
            print(f"ok   {what}: {len(wanted)} metrics")
            if trace == 0:
                untraced = res["metrics"]
        if workload in run.SIM_WORKLOADS:
            again = result(bench(workload, 7, 0), workload)["metrics"]
            for name in REPEATABLE:
                if again[name]["value"] != untraced[name]["value"]:
                    fail(f"{workload}: {name} differs between runs of a seed")
            print(f"ok   {workload}: counts repeat for a seed")
        forged = bench(workload, 7, 0, "--forge-disagreement")
        if (forged.returncode == 0 or "SAFETY VIOLATION" not in forged.stderr
                or f"workload={workload}" not in forged.stderr
                or "instance=" not in forged.stderr
                or "seed=7" not in forged.stderr):
            fail(f"{workload}: forged disagreement did not trip the gate: "
                 f"exit {forged.returncode}, stderr {forged.stderr[-500:]}")
        print(f"ok   {workload}: gate trips on a forged disagreement")
    print("smoke check passed")


if __name__ == "__main__":
    main()
