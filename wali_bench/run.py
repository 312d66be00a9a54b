#!/usr/bin/env python3
"""Builds wali_bench from the repository sources and runs it.

One workload, ending with a one-line JSON summary on stdout (trace 0 gives
the end-to-end metrics, trace 1 the per-layer ones):
  python3 wali_bench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
All six workloads, every metric printed by name and unit:
  python3 wali_bench/run.py --seed N [--quick] [--trace 0|1] [--json FILE]
Compare two result sets (each a --json file, or several joined by commas)
on every end-to-end metric, against the bounds in BENCHMARK.json:
  python3 wali_bench/run.py --compare A.json B.json

The build goes to $CARGO_TARGET_DIR/wali_bench (default .bench_build), and
traces to trace/ beside the binary. Exit status is nonzero when a check
failed, the build failed, or a comparison found a difference beyond its
bound.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def die(message):
    print(f"wali_bench: {message}", file=sys.stderr)
    sys.exit(2)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "host", "supervisor.h")):
        die(f"repository sources not found under {ROOT}")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out = os.path.join(target, "wali_bench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"] + generator)
    steps.append(["cmake", "--build", out, "--target", "wali_bench",
                  "-j", str(os.cpu_count() or 1)])
    # Compiler temporaries stay inside the build directory.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        try:
            r = subprocess.run(cmd, capture_output=True, text=True, env=env,
                               timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die("build timed out")
        if r.returncode != 0:
            sys.stderr.write(r.stdout + r.stderr)
            die("build failed")
    return os.path.join(out, "wali_bench")


def summary_line(result, workload, traced):
    """The one-line JSON summary of one workload's run."""
    w = result["workloads"][workload]
    measured = {**w["layer"], **w["distribution"]} if traced else w["e2e"]
    metrics = {}
    for m in spec()["per_layer" if traced else "end_to_end"]:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            die(f"{workload}: metric {m['name']} [{m['unit']}] not reported")
        metrics[m["name"]] = got
    return {"correct": w["correct"], "attempted": w["attempted"],
            "failed": w["failed"], "metrics": metrics}


def run(args):
    binary = build()
    out = os.path.dirname(binary)
    json_path = args.json or os.path.join(out, "last_run.json")
    if os.path.exists(json_path):
        os.remove(json_path)
    cmd = [binary, "--seed", str(args.seed), "--json", json_path]
    if args.workload:
        cmd += ["--workload", args.workload]
    if args.seconds is not None:
        cmd += ["--seconds", repr(args.seconds)]
    if args.quick:
        cmd.append("--quick")
    if args.trace:
        cmd += ["--trace", os.path.join(out, "trace")]
    # Own process group, so a timeout stops the children too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("benchmark timed out")
    sys.stdout.write(stdout)
    if not os.path.isfile(json_path):
        die("benchmark wrote no result")
    if args.workload:
        with open(json_path) as f:
            result = json.load(f)
        print(json.dumps(summary_line(result, args.workload, args.trace)),
              flush=True)
    return 0 if proc.returncode == 0 else 1


def compare(a_arg, b_arg):
    def load(arg):
        sets = []
        for path in arg.split(","):
            with open(path) as f:
                sets.append(json.load(f)["workloads"])
        return sets

    a_sets, b_sets = load(a_arg), load(b_arg)
    s = spec()
    differs = 0
    print(f"{'workload':14s} {'metric':18s} {'A median':>12s} {'B median':>12s}"
          f" {'change':>8s} bound  A min..max, B min..max (over several files)")
    for w in (x["name"] for x in s["workloads"]):
        a_runs = [r[w] for r in a_sets if w in r]
        b_runs = [r[w] for r in b_sets if w in r]
        if not a_runs or not b_runs:
            continue
        for m in s["end_to_end"]:
            av = [r["e2e"][m["name"]]["value"] for r in a_runs]
            bv = [r["e2e"][m["name"]]["value"] for r in b_runs]
            a, b = statistics.median(av), statistics.median(bv)
            change = (b - a) / a if a else 0.0
            bad = abs(change) > m["bound"]
            differs += bad
            spread = ", ".join(f"{min(v):.6g}..{max(v):.6g}" for v in (av, bv) if len(v) > 1)
            print(f"{w:14s} {m['name']:18s} {a:12.6g} {b:12.6g} {change:+8.2%}"
                  f" {m['bound']:5.0%} {'DIFFERS' if bad else 'ok':7s} {spread}")
        rate = [sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
                for runs in (a_runs, b_runs)]
        if rate[1] > rate[0]:
            differs += 1
            print(f"{w:14s} error rate rose: {rate[0]:.3g} -> {rate[1]:.3g} DIFFERS")
    return 1 if differs else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--json")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
