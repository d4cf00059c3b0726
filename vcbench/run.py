#!/usr/bin/env python3
"""Build and run the vcomp stitching benchmark.

    python3 vcbench/run.py --workload s5378-var --seed 1 --seconds 30 --trace 0
    python3 vcbench/run.py --smoke
    python3 vcbench/run.py --workload s5378-var --uncapped

The first form builds the library and the vcbench program from source into
.bench_build/ (incremental after the first run), runs one measurement and
prints its report; its last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.  The metric names and units are
checked against BENCHMARK.json (end_to_end for --trace 0, per_layer for
--trace 1, plus the workload's extra metrics from vcbench/meta.json).

--seed seeds only the traced replay's sample of ATPG queries; --input-seed
(default 1, held-out 2) seeds the circuit and the run and GA seeds.

--smoke runs every workload, timed or not, on the small gen:s444 circuit in
both trace modes and checks that each named metric is printed with its unit.
--uncapped runs the named configuration without its stitched-cycle cap once
and compares m, t, TV and ex with the reference table in vcbench/meta.json.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "vcbench")
RUN_TIMEOUT_S = 170
UNCAPPED_TIMEOUT_S = 900


def fail(msg):
    print("vcbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_json(name):
    with open(os.path.join(ROOT if name == "BENCHMARK.json" else HERE,
                           name)) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core",
                                       "stitch_engine.cpp")):
        fail("library sources (src/) not found next to vcbench/")
    steps = [["cmake", "--build", BUILD, "-j", "4"]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))


def expected_metrics(workload, trace):
    """(name -> unit) vcbench must print for this workload and mode."""
    bench = load_json("BENCHMARK.json")
    meta = load_json("meta.json")
    names = {m["name"]: m["unit"]
             for m in bench["per_layer" if trace else "end_to_end"]}
    if trace:
        extra = meta.get("extra_per_layer", {}).get(workload, {})
        names.update(extra)
    return names


def run_vcbench(args, timeout):
    """Runs vcbench, echoing its report; returns (exit code, result,
    report lines)."""
    cmd = [BINARY] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("vcbench timed out: " + " ".join(args))
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print("\n".join(lines[-1:]))
        fail("vcbench printed no result (exit %d)" % proc.returncode)
    return proc.returncode, result, lines[:-1]


def check_result(result, workload, trace):
    """Returns a list of problems with the result's shape and metric set."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("unexpected keys %s" % sorted(result))
        return problems
    want = expected_metrics(workload, trace)
    got = result["metrics"]
    for name, unit in want.items():
        if name not in got:
            problems.append("metric %s missing" % name)
        elif got[name].get("unit") != unit:
            problems.append("metric %s has unit %s, expected %s"
                            % (name, got[name].get("unit"), unit))
    for name in got:
        if name not in want:
            problems.append("metric %s is not declared" % name)
    return problems


def measure(ns):
    code, result, _ = run_vcbench(
        ["--workload", ns.workload, "--seed", str(ns.seed),
         "--input-seed", str(ns.input_seed),
         "--seconds", str(ns.seconds), "--trace", str(ns.trace),
         "--trace-out",
         os.path.join(BUILD, "trace-%s.json" % ns.workload)],
        RUN_TIMEOUT_S)
    problems = check_result(result, ns.workload, ns.trace)
    for p in problems:
        print("FAIL: " + p)
    if problems:
        result["correct"] = False
    print(json.dumps(result))
    return 0 if code == 0 and not problems else 1


def smoke():
    meta = load_json("meta.json")
    status = 0
    for workload in meta["workloads"]:
        for trace in (0, 1):
            code, result, _ = run_vcbench(
                ["--workload", workload, "--circuit", "s444", "--seconds",
                 "0.5", "--trace", str(trace)], RUN_TIMEOUT_S)
            problems = check_result(result, workload, trace)
            if code != 0 or not result.get("correct"):
                problems.append("run failed (exit %d)" % code)
            verdict = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("smoke %s trace %d: %s" % (workload, trace, verdict))
            status |= 1 if problems else 0
    return status


def uncapped(ns):
    meta = load_json("meta.json")
    ref = meta["reference_uncapped"].get(ns.workload)
    if ref is None:
        fail("no uncapped reference for " + ns.workload)
    code, result, lines = run_vcbench(
        ["--workload", ns.workload, "--seconds", "0", "--uncapped"],
        UNCAPPED_TIMEOUT_S)
    got = None
    for line in lines:
        m = re.match(r"fingerprint: m=(\S+) t=(\S+) TV=(\d+) ex=(\d+)", line)
        if m:
            got = {"m": round(float(m.group(1)), 3),
                   "t": round(float(m.group(2)), 3),
                   "TV": int(m.group(3)), "ex": int(m.group(4))}
    match = got == ref
    print("uncapped %s: %s, reference %s: %s"
          % (ns.workload, got, ref, "match" if match else "MISMATCH"))
    if not match:
        result["correct"] = False
    print(json.dumps(result))
    return 0 if code == 0 and match else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--input-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--uncapped", action="store_true")
    ns = ap.parse_args()
    if not ns.smoke and not ns.workload:
        ap.error("--workload or --smoke is required")
    build()
    if ns.smoke:
        return smoke()
    if ns.uncapped:
        return uncapped(ns)
    return measure(ns)


if __name__ == "__main__":
    sys.exit(main())
