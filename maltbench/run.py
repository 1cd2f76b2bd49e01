#!/usr/bin/env python3
"""MALT training benchmark: one command, three workloads and a defect probe.

  python3 maltbench/run.py --workload svm-shmem-bsp-delta --seed 1 --seconds 25 --trace 0
  python3 maltbench/run.py --workload mf-sim-bsp --seed 1 --seconds 25 --trace 1
  python3 maltbench/run.py --workload mf-shmem-asp --seed 1 --seconds 25 --ranks 1

Builds the runtime and the maltbench binary from source into .bench_build/
(CMake), computes the seed's verification references once (cached), then:

  --trace 0  repeats fresh-process training runs (RunDistributedSvm / Mf on a
             fresh Malt) for --seconds and reports the end-to-end medians;
  --trace 1  adds the traced per-layer ladder and reports per-layer metrics
             (summarize.py), keeping the spans in .bench_build/traces/.

Every run is verified (message count, held-out error, SVM hinge loss). The
last stdout line is one JSON object: correct, attempted, failed, metrics.
--ranks 1 is the single-worker baseline of any workload. svm-shmem-bsp (SVM
with whole-model rounds) is not a BENCHMARK.json workload: it probes the SVM
hinge-loss defect, which fails a load-dependent share of its runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "maltbench")
BINARY = os.path.join(BUILD, "maltbench")
WORKLOADS = ("svm-shmem-bsp", "svm-shmem-bsp-delta", "mf-shmem-asp", "mf-sim-bsp")
CHILD_TIMEOUT_S = 120
MIN_RUNS = 3

END_TO_END = {
    "examples_per_s": "1/s",
    "setup_s": "s",
    "test_error": "1",
    "error_vs_1rank": "ratio",
    "wire_bytes_per_example": "B",
    "peak_rss_mb": "MB",
    "virtual_s": "s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("maltbench: no runtime sources at ./src; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j4"], check=True, stdout=sys.stderr)


def child(*args):
    """Runs the maltbench binary; returns its last stdout line as JSON ({} when
    it prints nothing), or None when it fails."""
    try:
        proc = subprocess.run([BINARY, *args], capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"maltbench {args[0]}: timed out")
        return None
    if proc.returncode != 0:
        log(f"maltbench {args[0]}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return None
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def reference(workload, seed, ranks):
    cache = os.path.join(ROOT, ".bench_build", "refs", f"{workload}-{seed}-{ranks}.json")
    if os.path.isfile(cache):
        with open(cache) as f:
            return json.load(f)
    ref = child("ref", f"--workload={workload}", f"--seed={seed}", f"--ranks={ranks}")
    if ref is None:
        raise SystemExit("maltbench: reference run failed")
    os.makedirs(os.path.dirname(cache), exist_ok=True)
    with open(cache, "w") as f:
        json.dump(ref, f)
    return ref


def plain_runs(workload, seed, ranks, ref, seconds):
    """Fresh-process training runs until `seconds` pass (at least MIN_RUNS)."""
    args = ["run", f"--workload={workload}", f"--seed={seed}", f"--ranks={ranks}",
            f"--max_test_error={ref['max_test_error']!r}", f"--max_loss={ref['max_loss']!r}"]
    runs, crashed = [], 0
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or len(runs) + crashed < MIN_RUNS:
        out = child(*args)
        if out is None:
            crashed += 1
        else:
            runs.append(out)
    return runs, crashed


def account(runs, crashed):
    """(attempted, failed, failed_runs): writes, barriers and whole runs are
    operations; error completions, barrier timeouts and runs that fail a
    check are failures."""
    attempted = failed = 0
    failed_runs = crashed
    for r in runs:
        c = r["counters"]
        attempted += int(c.get("fabric.writes_posted", 0) + c.get("dstorm.barriers", 0)) + 1
        failed += int(c.get("dstorm.error_completions", 0) + c.get("dstorm.barrier_timeouts", 0))
        if r["checks_failed"]:
            failed_runs += 1
            log(f"maltbench: run failed verification: {'; '.join(r['checks_failed'])}")
    return attempted + crashed, failed + failed_runs, failed_runs


def deterministic(runs):
    """Under sim, every run of one seed must reproduce the same results."""
    if not runs or runs[0]["transport"] != "sim":
        return True
    keys = ("run_clock_s", "test_error", "messages", "bytes")
    return all(all(r[k] == runs[0][k] for k in keys) for r in runs)


def end_to_end(runs, ref):
    med = lambda key: statistics.median(r[key] for r in runs)  # noqa: E731
    values = {
        "examples_per_s": med("examples_per_s"),
        "setup_s": med("setup_s"),
        "test_error": med("test_error"),
        # Same held-out set as the serial run, so the seed's dataset cancels.
        "error_vs_1rank": med("test_error") / ref["error_1rank"],
        "wire_bytes_per_example": med("wire_bytes_per_example"),
        "peak_rss_mb": med("peak_rss_mb"),
        # The cluster's finish time on the run's own clock: simulated seconds
        # under sim (the paper's time axis), wall seconds under shmem.
        "virtual_s": med("run_clock_s"),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(workload, seed, ranks, runs, seconds):
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, f"{workload}.ndjson")  # the latest traced run
    with open(path, "w") as f:
        for r in runs:
            f.write(json.dumps(dict(r, type="plain_run")) + "\n")
    # Mean wire bytes of one write; a 1-rank run writes nothing, and its
    # ladder has no out-edges to write to either.
    sizes = [r["bytes"] / r["counters"]["fabric.writes_posted"] for r in runs
             if r["counters"].get("fabric.writes_posted")]
    write_bytes = max(32.0, statistics.median(sizes)) if sizes else 32.0
    scale = min(3.0, max(0.25, seconds / 20.0))
    done = child("ladder", f"--workload={workload}", f"--seed={seed}", f"--ranks={ranks}",
                 f"--write_bytes={write_bytes!r}", f"--scale={scale!r}", f"--out={path}")
    if done is None:
        raise SystemExit("maltbench: traced run failed")
    m = summarize.summarize(path)
    if not summarize.check_shares(m):
        raise SystemExit("maltbench: wall shares do not sum to 1")
    return {k: {"value": m[k], "unit": u} for k, u in summarize.PER_LAYER.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ranks", type=int, default=4, help="1 = single-worker baseline")
    args = ap.parse_args()

    build()
    ref = reference(args.workload, args.seed, args.ranks)
    # The traced run spends about half its time on plain runs (for the
    # counters and the training wall) and the rest on the ladder.
    plain_seconds = args.seconds if args.trace == 0 else args.seconds / 2
    runs, crashed = plain_runs(args.workload, args.seed, args.ranks, ref, plain_seconds)
    attempted, failed, failed_runs = account(runs, crashed)
    if not runs:
        raise SystemExit("maltbench: no training run completed")
    correct = deterministic(runs) and 2 * failed_runs < len(runs) + crashed
    log(f"maltbench {args.workload} seed={args.seed} ranks={args.ranks}: "
        f"{len(runs) + crashed} runs, {failed_runs} failed verification or crashed; "
        f"limits error<={ref['max_test_error']:.4f} loss<={ref['max_loss']:.4f}")
    if args.trace:
        metrics = per_layer(args.workload, args.seed, args.ranks, runs, args.seconds)
        attempted += 1
    else:
        metrics = end_to_end(runs, ref)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
