#!/usr/bin/env python3
"""Repository benchmark for the asymnvm library.

    python3 perfbench/run.py --workload read_zipf|write_mix|tatp \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (which compiles the
library from src/) into .bench_build, then repeats the workload in fresh
processes for about S seconds. Every repetition builds the deployment,
preloads, runs the timed closed loop, power-fails the back-end, recovers
and checks every acknowledged write against a reference model.

Virtual-time metrics are a pure function of workload and seed, so every
repetition must report them bit-identically (the determinism check).
Host metrics are the median over the repetitions. Timed-phase host
times are first scaled to one reference machine speed: each repetition
times short slices of a fixed calibration kernel (perfbench/calibrate.h)
between its requests, and its timed-phase host times are multiplied by
(REF_SLICE_NS / its mean slice time) ** SLICE_ELASTICITY[workload]. On a
shared machine the library and the kernel slow down together, so the
scaled times hold still while the raw ones drift. With --trace 1 the
repetitions alternate untraced and traced, the two must agree on every
virtual-time metric, and the per-layer metrics are reported.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("read_zipf", "write_mix", "tatp")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# End-to-end metrics: (name, unit, source). "virt" metrics repeat exactly
# across repetitions; "host" metrics are aggregated over them.
END_TO_END = [
    ("kops", "kop/s", "virt"),
    ("lat_p50_ns", "ns", "virt"),
    ("lat_p999_ns", "ns", "virt"),
    ("write_amp", "B/B", "virt"),
    ("ok_frac", "ratio", "virt"),
    ("recover_us", "us", "virt"),
    ("host_ns_per_op", "ns", "host"),
    ("setup_s", "s", "host"),
    ("peak_rss_mb", "MB", "host"),
]

DS_OPS = ("find", "insert", "put", "push", "pop", "enqueue", "dequeue")
TATP_TXS = ("get_subscriber_data", "get_new_destination", "get_access_data",
            "update_subscriber_data", "update_location",
            "insert_call_forwarding", "delete_call_forwarding")

# Per-layer metrics, named by module. A metric a workload does not
# exercise (ds.push on read_zipf, a TATP transaction elsewhere) reads 0.
PER_LAYER = (
    [(f"ds.{op}.{m}", "ns") for op in DS_OPS
     for m in ("lat_p50_ns", "lat_p999_ns", "host_ns")]
    + [("ds.remote_reads_per_lookup", "count")]
    + [(f"apps.tatp.{tx}.lat_p50_ns", "ns") for tx in TATP_TXS]
    + [
        ("frontend.cache.hit_ratio", "ratio"),
        ("frontend.cache.evictions_per_op", "count"),
        ("frontend.prefetch.useful_ratio", "ratio"),
        ("frontend.pipeline.reads_per_round", "count"),
        ("frontend.pipeline.dep_stalls_per_op", "count"),
        ("frontend.commit.per_kop", "count"),
        ("frontend.commit.mean_ns", "ns"),
        ("frontend.recover.tail_kept_frac", "ratio"),
        ("rdma.doorbells_per_op", "count"),
        ("rdma.wqes_per_op", "count"),
        ("rdma.round_trips_per_op", "count"),
        ("rdma.bytes_per_op", "B"),
        ("rdma.retries", "count"),
        ("nic.busy_frac", "ratio"),
        ("nic.verbs_per_op", "count"),
        ("nic.gather_batches_per_op", "count"),
        ("backend.busy_ns_per_op", "ns"),
        ("backend.replayed_entries_per_op", "count"),
        ("backend.rpc_per_op", "count"),
        ("log.wire_bytes_per_op", "B"),
        ("log.wire_per_payload", "B/B"),
        ("nvm.bytes_written_per_op", "B"),
        ("mirror.batches_per_op", "count"),
        ("mirror.persists_per_op", "count"),
        ("mirror.bytes_per_op", "B"),
        ("host.setup.backend_s", "s"),
        ("host.setup.preload_s", "s"),
        ("host.minor_faults.setup", "count"),
        ("host.minor_faults.run", "count"),
        ("host.flush_ns_per_op", "ns"),
        ("host.trace_overhead_pct", "%"),
        ("host.raw_ns_per_op", "ns"),
        ("host.calib.slice_ns", "ns"),
    ]
)

# Timed-phase host times are scaled to the speed at which one calibration
# slice takes this long (about a quiet 2 GHz Xeon's).
REF_SLICE_NS = 30000.0
# How strongly each workload's host time follows the slice time: the
# slope of log(host ns per op) on log(slice ns) over repetitions of one
# seed on a shared 4-core Xeon VM (write_mix 1.06 and 0.97 over 60 and
# 50 repetitions, tatp 0.76 over 20, read_zipf 0.55 and 0.58 over 16
# and 8). The slices lose more of their cache to read_zipf's and tatp's
# larger working sets, so they swing more than those workloads do.
SLICE_ELASTICITY = {"read_zipf": 0.55, "write_mix": 1.0, "tatp": 0.75}
# Set-up is not scaled: neither slices run around or during it nor a
# page-fault kernel followed its time closely enough to steady it
# (see perfbench/README.md, Host metrics).
UNSCALED = ("setup_s", "host.setup.backend_s", "host.setup.preload_s")
# Host measurements that are not times: the smallest repetition's value.
NOT_TIMES = ("peak_rss_mb", "host.minor_faults.setup",
             "host.minor_faults.run")

REP_TIMEOUT_S = 60  # one repetition takes a few seconds


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure (once) and build asymbench; returns its path or None."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log(f"run.py: cannot run {cmd[0]}: {e}")
            return None
        if r.returncode != 0:
            log(f"run.py: build step failed: {' '.join(cmd)}")
            return None
    binary = os.path.join(out, "asymbench")
    return binary if os.access(binary, os.X_OK) else None


def run_rep(binary, workload, seed, traced):
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if traced:
        trace_dir = os.path.join(build_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace", "--trace-out",
                os.path.join(trace_dir, f"{workload}-seed{seed}.tsv")]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                       timeout=REP_TIMEOUT_S, text=True)
    if r.returncode != 0:
        raise RuntimeError(f"asymbench exited with {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def raw_median(reps, key):
    return statistics.median(r["host"][key] for r in reps)


def virt_mismatches(a, b):
    """Virtual-time metrics both repetitions report but disagree on."""
    return sorted(k for k in a["virt"].keys() & b["virt"].keys()
                  if a["virt"][k] != b["virt"][k])


def host_value(reps, key, workload):
    """One host metric over repetitions: the median of a time (scaled if
    it is the timed phase's), or the smallest value of a metric that is
    not a time."""
    if key in NOT_TIMES:
        return min(r["host"][key] for r in reps)
    if key in UNSCALED:
        return raw_median(reps, key)
    e = SLICE_ELASTICITY[workload]
    return statistics.median(
        r["host"][key] * (REF_SLICE_NS / r["host"]["calib.slice_ns"]) ** e
        for r in reps)


def raw_source(name):
    """The unscaled asymbench host key a per-layer metric reports, or
    None when it is not one of those."""
    if name == "host.raw_ns_per_op":
        return "host_ns_per_op"
    if name.startswith("host.calib."):
        return name[len("host."):]
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        return 1

    # Repetitions alternate untraced/traced in the traced run; at least
    # two of each kind so determinism is checked within a kind too.
    pattern = [False, True] if args.trace else [False]
    min_reps = 4 if args.trace else 3
    reps = []
    start = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if len(reps) >= min_reps and elapsed + longest > args.seconds:
            break
        t0 = time.monotonic()
        traced = pattern[len(reps) % len(pattern)]
        try:
            reps.append(run_rep(binary, args.workload, args.seed, traced))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError,
                IndexError) as e:
            log(f"run.py: repetition failed: {e}")
            return 1
        longest = max(longest, time.monotonic() - t0)

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for r in reps:
        for err in r["errors"]:
            log(f"oracle: {err}")
    for r in reps[1:]:
        bad = virt_mismatches(reps[0], r)
        if bad:
            log("determinism: virtual-time metrics differ between "
                f"repetitions: {', '.join(bad)}")
            failed += len(bad)
    correct = failed == 0

    plain = [r for r in reps if not r["trace"]]
    traced = [r for r in reps if r["trace"]]
    v = reps[0]["virt"]
    metrics = {}
    if args.trace:
        tv = traced[0]["virt"]
        for name, unit in PER_LAYER:
            if name == "host.trace_overhead_pct":
                value = 100.0 * (
                    host_value(traced, "host_ns_per_op", args.workload) /
                    host_value(plain, "host_ns_per_op", args.workload) - 1.0)
            elif raw_source(name):
                value = raw_median(plain, raw_source(name))
            elif name in traced[0]["host"]:
                value = host_value(traced, name, args.workload)
            else:
                value = tv.get(name, 0.0)
            metrics[name] = {"value": value, "unit": unit}
    else:
        for name, unit, src in END_TO_END:
            if name == "ok_frac":
                value = max(0.0, 1.0 - failed / attempted)
            elif src == "virt":
                value = v[name]
            else:
                value = host_value(plain, name, args.workload)
            metrics[name] = {"value": value, "unit": unit}

    log(f"{args.workload} seed {args.seed}: {len(reps)} repetitions in "
        f"{time.monotonic() - start:.1f} s, {int(v['lat_samples'])} latency "
        f"samples per repetition, {int(v['ops'])} ops, "
        f"{'correct' if correct else 'INCORRECT'}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
