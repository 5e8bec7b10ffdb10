#!/usr/bin/env python3
"""Steady-state end-to-end benchmark of the FCP mining pipeline.

Builds perfbench/fcp_e2e from the repository sources, runs one workload and
checks its output against the reference digests in perfbench/reference.json.

    python3 perfbench/run.py --workload twitter-serial --seed 1 --seconds 10 --trace 0

Every metric is printed by name with its unit; the last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
metrics are the per-layer ledger (see perfbench/NOTES.md).

    python3 perfbench/run.py --make-reference [--seconds 10]

recomputes reference.json with the serial engine (untimed) for every slot.
"""

import argparse
import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "fcp_e2e"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("twitter-serial", "traffic-serial", "twitter-sharded")
TRACES = ("twitter", "traffic")
SLOTS = 16  # must match kSlots in fcp_e2e.cc
RUN_TIMEOUT_S = 900


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds fcp_e2e; False on any failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "fcp_e2e"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return BINARY.exists()


def run_binary(args):
    """Runs fcp_e2e; returns its last stdout line parsed, or None."""
    try:
        done = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("fcp_e2e timed out")
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"fcp_e2e exited with {done.returncode}")
        return None
    return json.loads(lines[-1])


def reference_key(trace, slot, window_events):
    return f"{trace}/{slot}/{window_events}"


def make_reference(seconds):
    def one(job):
        trace, slot = job
        return run_binary(["--mode=reference", f"--trace_name={trace}",
                           f"--slot={slot}", f"--seconds={seconds}"])

    jobs = [(t, s) for t in TRACES for s in range(SLOTS)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(one, jobs))
    if any(r is None for r in results):
        log("a reference run failed")
        return 1
    refs = {}
    if REFERENCE.exists():
        refs = json.loads(REFERENCE.read_text())["digests"]
    for r in results:
        key = reference_key(r["trace"], r["slot"], r["window_events"])
        refs[key] = {"digest": r["digest"], "fcps": r["fcps"]}
    REFERENCE.write_text(json.dumps({
        "about": "Sorted-FCP digests of the serial MiningEngine (CooMine) over "
                 "each slot's trace, keyed trace/slot/window_events.",
        "digests": dict(sorted(refs.items())),
    }, indent=1) + "\n")
    log(f"wrote {len(refs)} digests to {REFERENCE}")
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-reference", action="store_true")
    opts = parser.parse_args()
    if opts.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not opts.make_reference and opts.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if opts.make_reference:
        return make_reference(opts.seconds)

    spans_dir = ROOT / ".bench_build" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    result = run_binary([f"--workload={opts.workload}", f"--seed={opts.seed}",
                         f"--seconds={opts.seconds}", f"--trace={opts.trace}",
                         f"--spans={spans_dir / (opts.workload + '.csv')}"])
    if result is None:
        return 1

    # Output check: the digest must equal the serial engine's on this trace.
    key = reference_key(result["trace"], result["slot"], result["window_events"])
    refs = json.loads(REFERENCE.read_text())["digests"] if REFERENCE.exists() else {}
    ref = refs.get(key)
    if ref is None:
        log(f"no stored reference for {key}; computing it with the serial engine")
        fresh = run_binary(["--mode=reference", f"--trace_name={result['trace']}",
                            f"--slot={result['slot']}", f"--seconds={opts.seconds}"])
        if fresh is None:
            return 1
        ref = {"digest": fresh["digest"], "fcps": fresh["fcps"]}
    checks = dict(result["checks"])
    checks["digest_matches_reference"] = (result["digest"] == ref["digest"] and
                                          result["fcps"] == ref["fcps"])
    correct = all(checks.values())

    print(f"workload {opts.workload} seed {opts.seed} (trace {key}): "
          f"warm-up {result['warmup_events']} events over "
          f"{result['warmup_span_s']:.0f} s of event time (tau {result['tau_s']:.0f} s), "
          f"window {result['window_events']} events")
    print("slice events/s: " + " ".join(f"{v:.0f}" for v in result["slice_events_per_s"]))
    print(f"output: {result['fcps']} FCPs, digest {result['digest']} "
          f"(reference {ref['digest']}, {ref['fcps']} FCPs)")
    for name, ok in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    attempted = result["window_events"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": 0 if correct else attempted,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
