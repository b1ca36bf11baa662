#!/usr/bin/env python3
"""Smoke-size self-test of asymbench, the benchmark program.

    python3 perfbench/selftest.py [--binary PATH]

Runs every workload at a tiny size twice untraced and once traced with
the same seed, and checks that each repetition passes the oracle, that
the virtual-time metrics are bit-identical across all three (the
determinism check, traced against untraced included), that every
metric perfbench/run.py reports is present, and that BENCHMARK.json
lists exactly those metrics. Without --binary it builds
asymbench the way run.py does. Exits non-zero on the first problem.
"""

import argparse
import json
import math
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (same directory)


def rep(binary, workload, seed, traced):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--smoke"]
    if traced:
        cmd.append("--trace")
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120)
    if r.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def check(cond, msg):
    if not cond:
        raise AssertionError(msg)


def check_manifest():
    """BENCHMARK.json must list exactly the metrics run.py reports."""
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as f:
        doc = json.load(f)
    e2e = [(m["name"], m["unit"]) for m in doc["end_to_end"]]
    check(e2e == [(n, u) for n, u, _ in run.END_TO_END],
          "BENCHMARK.json end_to_end differs from run.py")
    layer = [(m["name"], m["unit"]) for m in doc["per_layer"]]
    check(layer == run.PER_LAYER, "BENCHMARK.json per_layer differs")
    check([w["name"] for w in doc["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads differ from run.py")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary")
    args = ap.parse_args()
    check_manifest()
    binary = args.binary or run.build()
    check(binary is not None, "asymbench build failed")

    for workload in run.WORKLOADS:
        seed = 3
        reps = [rep(binary, workload, seed, False),
                rep(binary, workload, seed, False),
                rep(binary, workload, seed, True)]
        for r in reps:
            check(r["failed"] == 0 and r["attempted"] > 0,
                  f"{workload}: oracle failures {r['errors']}")
        for r in reps[1:]:
            bad = run.virt_mismatches(reps[0], r)
            check(not bad, f"{workload}: not deterministic: {bad}")
        plain, traced = reps[0], reps[2]
        for name, _, src in run.END_TO_END:
            if name == "ok_frac":
                continue
            value = plain[src][name]
            check(math.isfinite(value) and value > 0,
                  f"{workload}: end-to-end {name} = {value}")
        for name, _ in run.PER_LAYER:
            if name.startswith(("ds.", "apps.", "host.trace_overhead")):
                continue  # span metrics exist only where the op runs
            key = run.raw_source(name) or name
            check(key in traced["virt"] or key in traced["host"],
                  f"{workload}: per-layer {name} missing")
        check(plain["host"]["calib.slice_ns"] > 0,
              f"{workload}: no calibration slice timed")
        check(traced["virt"]["rdma.retries"] == 0,
              f"{workload}: retries on a fault-free run")
        print(f"{workload}: ok ({int(plain['virt']['ops'])} ops, "
              f"kops {plain['virt']['kops']:.1f})")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"selftest: FAIL: {e}", file=sys.stderr)
        sys.exit(1)
