#!/usr/bin/env python3
"""End-to-end training benchmark for angelptm.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the library from src/) into the build
directory ($CARGO_TARGET_DIR, default .bench_build), runs one workload in a
fresh process and prints one JSON result as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (the step ledger); the span file of a traced run is written
to .bench_out/. Each run gets its own scratch directory under .bench_tmp/
for SSD backing files, checkpoints and rendezvous sockets, removed on every
exit path. Exits non-zero without a result when the build or the run fails.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the benchmark; returns the binary path."""
    subprocess.run(
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
         f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench_e2e",
         "-j", str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench_e2e")


def child_env():
    # The program must see only the generated inputs: drop every knob the
    # library reads from the environment (tracing, thread counts, SIMD path,
    # SSD queue shape, fault injection).
    return {k: v for k, v in os.environ.items()
            if not k.startswith("ANGELPTM_")}


def check_result(result, spec, trace):
    """Checks the result's shape against BENCHMARK.json; returns problems."""
    problems = []
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    for metric in expected:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append(f"metric {metric['name']} missing")
            continue
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {metric['name']} is not a finite number")
        elif not trace and value <= 0:
            problems.append(f"metric {metric['name']} is not positive")
        if got.get("unit") != metric["unit"]:
            problems.append(f"metric {metric['name']} unit {got.get('unit')} "
                            f"!= {metric['unit']}")
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    if result.get("attempted", 0) < 1:
        problems.append("no step attempted")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # targets.json names, for every per-layer metric, the end-to-end metric
    # and workloads a change to that layer should move.
    with open(os.path.join(ROOT, "perfbench", "targets.json")) as f:
        targets = json.load(f)
    untargeted = {m["name"] for m in spec["per_layer"]} ^ set(targets)
    if untargeted:
        log(f"targets.json and BENCHMARK.json disagree on {sorted(untargeted)}")
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-",
                               dir=os.path.join(ROOT, ".bench_tmp"))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               # Relative, so the rendezvous socket path stays short.
               "--workdir", os.path.relpath(workdir, ROOT)]
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        command += ["--spans", os.path.join(
            ".bench_out", f"{args.workload}-seed{args.seed}.trace.json")]
    child = None
    try:
        child = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                                 stdout=subprocess.PIPE, text=True)
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        code = child.returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(workdir, ignore_errors=True)

    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        log(f"benchmark process exited with code {code}")
        return 4
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("benchmark process printed no result")
        return 4
    problems = check_result(result, spec, args.trace)
    for problem in problems:
        log(f"result check failed: {problem}")
    if problems:
        result["correct"] = False
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
