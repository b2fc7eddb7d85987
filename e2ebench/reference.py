#!/usr/bin/env python3
"""Regenerates the benchmark's reference figures.

Runs every workload (or those named) on ten seeds with tracing off, then
once with tracing on, and prints for each metric the median, the first
and third quartiles and the spread between them as a share of the median.

    python3 e2ebench/reference.py [--seeds 1-10] [--seconds 25] [workload ...]

Run it from the root of the repository. The benchmark is built by the
first run, into `$CARGO_TARGET_DIR` (default `.bench_build`).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["zk-digits", "pgd-cifar", "serve-lenet"]
COMMAND = ["cargo", "run", "--quiet", "--release", "--offline", "--locked",
           "--manifest-path", "e2ebench/Cargo.toml", "--"]


def run(workload, seed, seconds, trace):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(COMMAND + args, capture_output=True, text=True, env=env)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-3000:]}")
    return json.loads(lines[-1])


def summary(results):
    values = {}
    for r in results:
        for name, m in r["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
    for name, (unit, vs) in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = f"q1 {q1:<12.5g} q3 {q3:<12.5g} spread {(q3 - q1) / med:.3f}"
        else:
            spread = ""
        print(f"  {name:28s} {unit:8s} median {med:<12.5g} {spread}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    a = ap.parse_args()
    lo, hi = (int(v) for v in a.seeds.split("-"))
    for w in a.workloads:
        results = [run(w, s, a.seconds, 0) for s in range(lo, hi + 1)]
        shares = {r["failed"] / r["attempted"] for r in results}
        ok = all(r["correct"] for r in results)
        print(f"{w}: {len(results)} runs, all correct: {ok}, failed shares: {sorted(shares)}")
        summary(results)
        traced = run(w, lo, a.seconds, 1)
        print(f"{w} traced (seed {lo}), correct: {traced['correct']}")
        summary([traced])


if __name__ == "__main__":
    main()
