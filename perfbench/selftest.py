#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

For every workload: runs it briefly under ODIN_THREADS=1 and under
ODIN_THREADS=nproc and demands that every simulated outcome (sim_* and
failed_frac) is bitwise identical, then runs a second seed and demands
that every correctness check passes. Exits 1 on the first mismatch or
failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (this directory's runner: workload names, paths)

SEED, SECOND_SEED, SECONDS = 7, 8, "1"


def bench(workload, seed, threads):
    env = dict(os.environ, ODIN_THREADS=str(threads))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit("selftest: %s seed %d threads %d failed" %
                 (workload, seed, threads))
    path = os.path.join(run.RESULTS, "%s-seed%d-trace0-threads%d.json" %
                        (workload, seed, threads))
    with open(path) as f:
        return json.load(f)


def main():
    nproc = os.cpu_count() or 1
    for w in run.WORKLOADS:
        one = bench(w, SEED, 1)
        if nproc > 1:
            many = bench(w, SEED, nproc)
            if one["sim"] != many["sim"]:
                sys.exit("selftest: %s simulated outcomes differ between "
                         "ODIN_THREADS=1 and %d:\n%s\n%s" %
                         (w, nproc, one["sim"], many["sim"]))
            verdict = "identical at ODIN_THREADS=1 and %d" % nproc
        else:
            verdict = "one CPU: cross-thread comparison skipped"
        bench(w, SECOND_SEED, min(4, nproc))
        print("%-18s sim %s; seed %d clean" % (w, verdict, SECOND_SEED))
    print("selftest: pass")


if __name__ == "__main__":
    main()
