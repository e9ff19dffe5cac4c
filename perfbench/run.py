#!/usr/bin/env python3
"""Build and run the sfcpart pipeline benchmark.

Run from the root of a source checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke

The first call configures perfbench/CMakeLists.txt into .bench_build/perfbench
(RelWithDebInfo) and builds sfcbench from ../src; later calls only
rebuild what changed. Build output goes to .bench_build/perfbench/build.log.
sfcbench's report goes to stdout; its last line is the JSON result.
Traced runs write their Chrome-trace JSON under .bench_out/.

--smoke runs every workload at the tiny size (Ne = 4/8) untraced and traced,
and checks that each prints exactly the metrics BENCHMARK.json names, with
their units, and that no op failed its oracle.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "sfcbench")
RUN_TIMEOUT_S = 165
# Every workload sfcbench implements; BENCHMARK.json gates cold-plan,
# repartition-solo and rank-loss (see README.md).
WORKLOADS = ("cold-plan", "repartition", "repartition-solo", "seam-advect",
             "rank-loss")


def build():
    """Configure (once) and build sfcbench. Returns True on success."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "sfcbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                break
        else:
            return True
    with open(log_path) as log:
        sys.stderr.write("".join(log.readlines()[-40:]))
    sys.stderr.write("build failed; full log in %s\n" % log_path)
    return False


def run_sfcbench(args, capture):
    """Run sfcbench with `args`; returns (exit code, stdout or None)."""
    proc = subprocess.Popen([BINARY] + args, cwd=ROOT,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("sfcbench exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1, None
    return proc.returncode, out.decode() if capture else None


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            trace_out = os.path.join(OUT, "smoke-%s.json" % workload)
            code, out = run_sfcbench(
                ["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny",
                 "--trace-out", trace_out], capture=True)
            problems = []
            if code != 0:
                problems.append("exit code %d" % code)
            else:
                result = json.loads(out.strip().splitlines()[-1])
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append("result keys %s" % sorted(result))
                if result.get("correct") is not True:
                    problems.append("correct is not true")
                if result.get("failed") != 0 or result.get("attempted", 0) < 1:
                    problems.append("error_rate is not 0 (%s of %s failed)" % (
                        result.get("failed"), result.get("attempted")))
                got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
                if got != expected[trace]:
                    problems.append("metrics differ from BENCHMARK.json: "
                                    "missing %s, unexpected %s" % (
                                        sorted(set(expected[trace].items()) - set(got.items())),
                                        sorted(set(got.items()) - set(expected[trace].items()))))
                if "error_rate" not in out:
                    problems.append("no error_rate line in the report")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("smoke %-12s trace=%d %s" % (workload, trace, status))
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not build():
        return 1
    os.makedirs(OUT, exist_ok=True)
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    trace_out = os.path.join(OUT, "trace-%s-seed%d.json" % (args.workload, args.seed))
    code, _ = run_sfcbench(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--trace-out", trace_out], capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
