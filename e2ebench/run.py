#!/usr/bin/env python3
"""End-to-end agreement benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --workload all --seed <n> --seconds <s>

The first form is the benchmark contract: it builds the stack from source
(into $CARGO_TARGET_DIR, default .bench_build), runs one workload in its own
process and prints, as its last stdout line, one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics of BENCHMARK.json; --trace 1 repeats the untraced run's units with
tracing on and reports the per-layer metrics plus trace.overhead_frac.  On
the simulator the traced run must reproduce the untraced run's packet,
byte, round and shun counts exactly, or the run is not correct.

The second form runs every workload (untraced, then traced) and prints each
metric by name with its unit.

Workload parameters, the reason for each workload, and which end-to-end
metric each layer metric should move are recorded in e2ebench/spec.json.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIM_WORKLOADS = ("svss-stream", "svss-n7-byz", "ideal-stream")
ALL_WORKLOADS = SIM_WORKLOADS + ("socket-svss",)
# Wall-clock limit for the benchmark processes of one invocation.
PROCESS_LIMIT_S = 170
# Counts the traced run must reproduce exactly on the simulator.
FIDELITY_COUNTS = ("decisions", "packets", "bytes", "deliveries",
                   "rounds_sum", "shun_pairs")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "e2ebench")


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if not os.path.exists(os.path.join(out, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "e2ebench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(out, "e2ebench")


def metric_lists():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def run_bin(binary, workload, seed, seconds, trace, deadline, units=0,
            extra=()):
    """Runs one workload in its own process; returns its parsed JSON."""
    work = os.path.join(os.path.dirname(build_dir()), "work", workload)
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", work]
    if units:
        cmd += ["--units", str(units)]
    if trace:
        cmd += ["--spans", os.path.join(work, "spans.bin")]
    cmd += list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        raise RunFailed(proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class RunFailed(Exception):
    def __init__(self, code):
        super().__init__(f"benchmark process exited with status {code}")
        self.code = code


def measure(binary, workload, seed, seconds, trace, extra=()):
    """One contract run; returns the result object to print."""
    end_to_end, per_layer = metric_lists()
    # A traced invocation measures a third of the budget untraced, then
    # repeats exactly those units traced: layer metrics carry no bound, and
    # the two passes together stay near the untraced run's length.
    budget = seconds / 3 if trace else seconds
    deadline = time.monotonic() + PROCESS_LIMIT_S
    plain = run_bin(binary, workload, seed, budget, False, deadline,
                    extra=extra)
    correct = True
    if not trace:
        wanted, source = end_to_end, plain
    else:
        traced = run_bin(binary, workload, seed, budget, True, deadline,
                         units=int(plain["units"]), extra=extra)
        if workload in SIM_WORKLOADS:
            for key in FIDELITY_COUNTS:
                if traced["counts"][key] != plain["counts"][key]:
                    log(f"traced run changed {key}: "
                        f"{plain['counts'][key]} untraced vs "
                        f"{traced['counts'][key]} traced")
                    correct = False
        overhead = traced["timed_s"] / plain["timed_s"] - 1
        traced["metrics"]["trace.overhead_frac"] = {
            "value": overhead, "unit": "frac"}
        wanted, source = per_layer, traced
    if source["metrics"]["net.out_dropped_frames"]["value"] != 0:
        log("socket transport shed outbound frames")
        correct = False
    metrics = {}
    for m in wanted:
        got = source["metrics"][m["name"]]
        if got["unit"] != m["unit"]:
            raise SystemExit(f"unit mismatch for {m['name']}: "
                             f"{got['unit']} vs {m['unit']}")
        metrics[m["name"]] = got
    return {"correct": correct,
            "attempted": int(source["attempted"]),
            "failed": int(source["failed"]),
            "metrics": metrics}


def run_all(binary, seed, seconds):
    for workload in ALL_WORKLOADS:
        for trace in (False, True):
            res = measure(binary, workload, seed, seconds, trace)
            print(f"== {workload} ({'traced' if trace else 'untraced'}): "
                  f"correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}")
            for name, m in res["metrics"].items():
                print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
            sys.stdout.flush()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=ALL_WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-check sizes")
    ap.add_argument("--forge-disagreement", action="store_true",
                    help="forge one decision so the correctness gate trips")
    args = ap.parse_args()
    extra = []
    if args.tiny:
        extra.append("--tiny")
    if args.forge_disagreement:
        extra.append("--forge-disagreement")
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2
    try:
        if args.workload == "all":
            run_all(binary, args.seed, args.seconds)
            return 0
        res = measure(binary, args.workload, args.seed, args.seconds,
                      args.trace == 1, extra)
    except RunFailed as e:
        log(str(e))
        return e.code
    except subprocess.TimeoutExpired as e:
        log(f"benchmark process did not finish in time: {e}")
        return 2
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
