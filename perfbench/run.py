#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (and the odin libraries
under src/) as a Release CMake tree in .bench_build/, runs the workload in
its own process with ODIN_THREADS <= nproc, checks its outputs, and prints
a human-readable table followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones (a layer the workload never reaches reads 0).
The full record, with provenance, goes to .bench_build/results/.
--workload all runs the four workloads one after another.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve-zoo", "campaign-1m", "cluster-failover", "hw-crossbar"]
BUILD = os.path.join(ROOT, ".bench_build", "perfbench-release")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD, "odin_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no odin sources under src/ next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "odin_perfbench"],
    ]
    # One build at a time per checkout.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(step))


def threads():
    """ODIN_THREADS for the workload: the caller's value when it is a
    number in [1, nproc], else min(4, nproc)."""
    nproc = os.cpu_count() or 1
    value = os.environ.get("ODIN_THREADS", "")
    if value.isdigit() and 1 <= int(value) <= nproc:
        return int(value)
    return min(4, nproc)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def source_sha256():
    """Digest of every source the benchmark builds, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(workload, seed, seconds, trace):
    """Run one workload process; returns (record, exit code)."""
    n = threads()
    work = os.path.join(RESULTS, "%s-seed%d-trace%d-threads%d" %
                        (workload, seed, trace, n))
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, ODIN_THREADS=str(n))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--work-dir", work]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s printed no result (exit %d)" % (workload, proc.returncode))
    record = json.loads(lines[-1])
    record["provenance"].update(git_sha=git_sha(),
                                source_sha256=source_sha256(),
                                odin_threads=n)
    with open(work + ".json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return record, proc.returncode


def select_metrics(record, trace, spec):
    """The contract's metrics for this mode, named and unitted as in
    BENCHMARK.json."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    have = record["per_layer"] if trace else record["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in have:
            value = have[m["name"]]["value"]
        elif trace:
            value = 0.0  # this workload never reaches the layer
        else:
            fail("%s did not report %s" % (record["workload"], m["name"]))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def print_table(record, metrics):
    print("== %s  seed %d  trace %d  correct %s" %
          (record["workload"], record["seed"], record["trace"],
           record["correct"]))
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    print("settings: " + json.dumps(record["settings"]))
    for name, ok in record["checks"].items():
        print("  check %-48s %s" % (name, "pass" if ok else "FAIL"))
    for name, m in metrics.items():
        print("  %-40s %22.10g %s" % (name, m["value"], m["unit"]))
    for name, m in record["sim"].items():
        print("  %-40s %22.17g %s  (simulated)" % (name, m["value"], m["unit"]))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec = contract()
    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in workloads:
        record, code = run_workload(w, args.seed, args.seconds, args.trace)
        selected = select_metrics(record, args.trace, spec)
        print_table(record, selected)
        ok = record["correct"] and code == 0
        correct = correct and ok
        attempted += record["attempted"]
        failed += 0 if ok else record["attempted"]
        if len(workloads) == 1:
            metrics = selected
        else:
            metrics.update({w + "." + k: v for k, v in selected.items()})
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
