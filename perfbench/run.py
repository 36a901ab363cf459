#!/usr/bin/env python3
"""The tuning service's benchmark: one run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the repository root. It builds perfbench_driver, the server
binary (examples/serve_remote.cpp) and the stack's libraries from source
into $CARGO_TARGET_DIR (default .bench_build), runs the workload against
the server in a child process, checks every wire session against its
in-process replay bit for bit, prints every metric by name with its unit,
and ends with one JSON line: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. It exits non-zero when the replay does not match or a metric
cannot be computed. perfbench/METRICS.md says what each metric means.

Self-tests of the metric helpers:

    python3 -m unittest discover -s perfbench/tests
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

DRIVER_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_driver", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest(root):
    """SHA-256 over src/, so runs of checkouts without git history stay
    attributable to a program version."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def print_metrics(title, values):
    print(title)
    for name, (value, unit) in values.items():
        print("  %-32s %14.6g %s" % (name, value, unit))


def print_layers(phase):
    layers = phase["layer_times"]
    if not layers:
        return
    total_self = sum(t["self_ms"] for t in layers.values()) or 1.0
    print("layer self time (traced pass; self = span minus its children):")
    print("  %-12s %12s %12s %9s %7s" % ("layer", "total_ms", "self_ms",
                                         "spans", "self%"))
    for layer, t in sorted(layers.items(), key=lambda kv: -kv[1]["self_ms"]):
        print("  %-12s %12.3f %12.3f %9d %6.1f%%"
              % (layer, t["total_ms"], t["self_ms"], t["spans"],
                 100.0 * t["self_ms"] / total_self))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    if not build(build_dir):
        log("perfbench: build failed")
        return 1

    workdir = os.path.join(build_dir, "runs",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    results_path = os.path.join(workdir, "results.json")
    command = [os.path.join(build_dir, "perfbench_driver"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--server", os.path.join(build_dir, "perfbench_server"),
               "--workdir", workdir, "--out", results_path]
    # Flush what the build and the previous run left to write back, so
    # the fsync-bound set-up does not queue behind it.
    os.sync()
    try:
        driver = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        return 1
    if driver.returncode != 0:
        log("perfbench: driver failed with code %d" % driver.returncode)
        return 1
    with open(results_path) as f:
        results = json.load(f)

    trace_path = None
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, "%s-seed%d.json"
                                  % (args.workload, args.seed))
        shutil.move(os.path.join(workdir, "trace.json"), trace_path)
    shutil.rmtree(workdir, ignore_errors=True)

    definition = results["workload_def"]
    phases = results["phases"]
    untraced = phases[0]
    context = dict(results["context"])
    context.update(workload=results["workload"], seed=results["seed"],
                   seconds=results["seconds"], git_revision=git_revision(),
                   src_digest=source_digest(root))
    print("run context: " + json.dumps(context, sort_keys=True))

    mismatches = []
    for phase in phases:
        replay = phase["replay"]
        if replay["mismatches"] or replay["sessions"] != len(phase["quality"]):
            mismatches.extend(replay["messages"] or ["session count differs"])
        for error in phase["errors"]:
            log("perfbench: request failed: " + error)
    correct = not mismatches
    for message in mismatches:
        log("perfbench: replay mismatch: " + message)

    try:
        if args.trace:
            traced = phases[1]
            gated = metrics.per_layer(untraced, traced)
            print_metrics("per-layer (traced pass):", gated)
            for name in ("trace.ask_coverage", "trace.tell_coverage"):
                if gated[name][0] > 1.0:
                    print("note: %s is above 1: the in-process replay of "
                          "these calls took longer than the wire round "
                          "trips it mirrors" % name)
            print_metrics("per-layer, this workload only:",
                          metrics.extra_per_layer(
                              traced, definition["des_transactions"]))
            print_layers(traced)
            print("trace file: %s" % trace_path)
        else:
            gated = metrics.end_to_end(untraced, definition)
            print_metrics("end-to-end (%d iterations in %g s):"
                          % (untraced["window_iterations"],
                             untraced["window_s"]), gated)
            print_metrics("end-to-end, not gated:",
                          metrics.extra_end_to_end(untraced, definition))
    except (metrics.InsufficientSamples, ValueError, ZeroDivisionError) as e:
        log("perfbench: cannot compute the metrics: %s" % e)
        return 1

    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    print(metrics.result_line(correct, attempted, failed, gated))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
