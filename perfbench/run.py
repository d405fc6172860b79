#!/usr/bin/env python3
"""Host-time benchmark of the Native Offloader.

Builds the benchmark binary nol_perfbench (perfbench/CMakeLists.txt,
which compiles the program's libraries from src/) into
.bench_build/perfbench, fills the benchmark's own native-artifact cache
once per build, and runs one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1. The line
before it holds diagnostics (host fingerprint, host.spin_ms samples, the
op-time tail); a copy of both goes to .bench_build/perfbench/results/.
See perfbench/NOTES.md for what each workload and metric measures.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# traffic-suite runs on request but is not in BENCHMARK.json: its pass
# times follow the host's load too closely to gate on (NOTES.md).
WORKLOADS = ("compile-suite", "paper-sweep", "traffic-suite")
END_TO_END = ("setup_s", "ops_per_s", "op_ms.geomean", "peak_rss_mb")
# Processes whose set-up time is sampled; setup_s is their median.
SETUP_SAMPLES = 3
# Every run must end within 180 s once nol_perfbench is built.
RUN_BUDGET_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then let CMake rebuild whatever changed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources not found: expected src/ beside perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "nol_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(bdir, "nol_perfbench")


def child(exe, args, timeout):
    """Run nol_perfbench; return its last stdout line as JSON."""
    try:
        proc = subprocess.run([exe] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout:.0f} s: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"nol_perfbench exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def fill_cache(exe, bdir):
    """The artifact cache of this build, compiled before its first run."""
    cache = os.path.join(bdir, "nol-codegen")
    stamp = os.path.join(cache, ".filled")
    st = os.stat(exe)
    key = f"{st.st_mtime_ns}:{st.st_size}\n"
    if os.path.isfile(stamp):
        with open(stamp) as f:
            if f.read() == key:
                return cache
    shutil.rmtree(cache, ignore_errors=True)
    os.makedirs(cache)
    child(exe, ["--mode", "fill-cache", "--codegen-dir", cache], 600)
    with open(stamp, "w") as f:
        f.write(key)
    return cache


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    cache = fill_cache(exe, bdir)
    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S

    def remaining():
        return max(1.0, deadline - time.monotonic())

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--codegen-dir", cache]
    measure = common + ["--seconds", str(args.seconds),
                        "--trace", str(args.trace), "--out-dir", results]
    extra = {}
    if args.trace == 0:
        setup_samples = []
        for _ in range(SETUP_SAMPLES - 1):
            start = time.monotonic_ns()
            ready = child(exe, common + ["--mode", "setup"], remaining())
            setup_samples.append((ready["ready_ns"] - start) / 1e9)
        start = time.monotonic_ns()
        out = child(exe, measure, remaining())
        setup_samples.append((out["ready_ns"] - start) / 1e9)
        out["metrics"]["setup_s"] = {
            "value": statistics.median(setup_samples), "unit": "s"}
        extra["setup_samples_s"] = setup_samples
        metrics = {name: out["metrics"][name] for name in END_TO_END}
    else:
        out = child(exe, measure, remaining())
        # Cold host `cc`: a fresh cache directory inside the checkout, in
        # a fresh process so no artifact is already loaded.
        cold = tempfile.mkdtemp(prefix="cold-cc-", dir=bdir)
        try:
            cc = child(exe, ["--mode", "artifact-load", "--codegen-dir",
                             cold], remaining())
        finally:
            shutil.rmtree(cold, ignore_errors=True)
        warm = child(exe, ["--mode", "artifact-load", "--codegen-dir",
                           cache], remaining())
        out["metrics"]["codegen.cc_s"] = {"value": cc["ms"] / 1e3,
                                          "unit": "s"}
        out["metrics"]["codegen.dlopen.ms"] = {"value": warm["ms"],
                                               "unit": "ms"}
        metrics = out["metrics"]

    diagnostics = dict(out["diagnostics"], workload=args.workload,
                       seed=args.seed, trace=args.trace,
                       failures=out["failures"], **extra)
    result = {"correct": bool(out["correct"]),
              "attempted": int(out["attempted"]),
              "failed": int(out["failed"]),
              "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump({"diagnostics": diagnostics, "result": result}, f,
                  indent=1)
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
