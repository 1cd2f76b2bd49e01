#!/usr/bin/env python3
"""Trace summary for the MALT training benchmark.

Reads the NDJSON file a traced run leaves behind and prints every per-layer
metric of each workload in it under its name. The file holds typed records:

  {"type":"plain_run", ...}  one per untraced training run (counters, walls)
  {"type":"ladder", ...}     the ladder's shape (ranks, rounds, write bytes)
  {"type":"span", ...}       one per timed call into a layer (see spans.h)

Each `*.wall_share` is a layer's per-op median x its ops on the critical path
of the plain run / the plain run's training wall; `trace.unattributed_share`
is what the shares leave unexplained, so the two always sum to 1 (checked).
On shmem the ranks run in parallel, so a rank's critical path carries 1/ranks
of the cluster's ops; under sim one rank runs at a time, so it carries all.

  python3 maltbench/summarize.py .bench_build/traces/mf-sim-bsp.ndjson
"""

import json
import statistics
import sys
from collections import defaultdict

WALL_SHARES = ("sim", "simnet", "shmem", "dstorm", "vol", "ml", "core")

# name -> unit, in the order the summary prints them.
PER_LAYER = {
    "sim.handoff_us.p50": "us", "sim.handoff_us.p99": "us",
    "sim.slices_per_example": "count", "sim.events_per_example": "count",
    "simnet.post_write_us.p50": "us", "simnet.post_write_us.p99": "us",
    "shmem.post_write_us.p50": "us", "shmem.post_write_us.p99": "us",
    "shmem.read_us.p50": "us", "shmem.read_us.p99": "us", "shmem.write_gbps": "GB/s",
    "dstorm.scatter_us.p50": "us", "dstorm.scatter_us.p99": "us",
    "dstorm.writes_per_example": "count",
    "dstorm.gather_us.p50": "us", "dstorm.gather_us.p99": "us",
    "dstorm.gather_yield": "ratio", "dstorm.stale_drops_per_gather": "count",
    "dstorm.torn_skips_per_gather": "count", "dstorm.overwrites_per_scatter": "count",
    "dstorm.efficiency_vs_raw": "ratio",
    "vol.scatter_us.p50": "us", "vol.scatter_us.p99": "us",
    "vol.fold_us.p50": "us", "vol.fold_us.p99": "us", "vol.fold_ns_per_value": "ns",
    "vol.values_folded_per_example": "count",
    "ml.step_ns.p50": "ns", "ml.step_ns.p99": "ns", "ml.eval_ms.p50": "ms",
    "core.barrier_us.p50": "us", "core.barrier_us.p99": "us",
    "core.phase_share.scatter": "ratio", "core.phase_share.gather": "ratio",
    "core.phase_share.barrier": "ratio", "core.phase_share.unphased": "ratio",
    "core.dataset_gen_s": "s", "core.malt_ctor_s": "s",
    "telemetry.lineage_ns_per_write": "ns",
}
PER_LAYER.update({f"{layer}.wall_share": "ratio" for layer in WALL_SHARES})
PER_LAYER.update({"trace.unattributed_share": "ratio", "trace.overhead": "ratio"})


def percentile(values, p):
    """Linear-interpolated percentile (p in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def self_times(spans):
    """Span id -> its duration minus the part of it its children cover (ns)."""
    children = defaultdict(list)
    for s in spans:
        if s.get("parent"):
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered = 0
        cursor = start
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            lo, hi = max(c["start_ns"], cursor), min(c["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (end - start) - covered
    return out


def load(path):
    plain, ladders, spans = [], [], defaultdict(list)
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            kind = rec.get("type")
            if kind == "plain_run":
                plain.append(rec)
            elif kind == "ladder":
                ladders.append(rec)
            elif kind == "span":
                spans[(rec["phase"], rec["name"])].append(rec)
    if not plain or not ladders:
        raise ValueError(f"{path}: needs plain_run and ladder records")
    return plain, ladders[0], spans


def _us(spans, per_n=False):
    return [(s["end_ns"] - s["start_ns"]) / 1e3 / (s["n"] if per_n else 1)
            for s in spans if not per_n or s["n"] > 0]


def _aggregate_rate(loops):
    """Cluster-wide n per second over the union window of per-rank loops."""
    if not loops:
        return 0.0
    window = max(s["end_ns"] for s in loops) - min(s["start_ns"] for s in loops)
    return sum(s["n"] for s in loops) / (window / 1e9) if window > 0 else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


def summarize(path):
    """Per-layer metrics {name: value} for the traced run stored at `path`."""
    plain, ladder, spans = load(path)
    # The representative plain run: median training wall.
    run = sorted(plain, key=lambda r: r["train_s"])[len(plain) // 2]
    c = run["counters"]
    ranks = run["ranks"]
    examples = run["examples"]
    wall_ns = run["train_s"] * 1e9
    sim = run["transport"] == "sim"

    def crit(n_total):
        return n_total if sim else n_total / ranks

    m = {}
    # sim: handoffs; one Advance span covers `ranks` baton passes.
    handoff = _us(spans[("sim_handoff", "sim.advance")], per_n=True)
    m["sim.handoff_us.p50"] = percentile(handoff, 50)
    m["sim.handoff_us.p99"] = percentile(handoff, 99)
    m["sim.slices_per_example"] = c.get("engine.slices_run", 0) / examples
    m["sim.events_per_example"] = c.get("engine.events_applied", 0) / examples

    # Transports: raw post/read latency at the workload's write size.
    for layer, phase in (("simnet", "simnet_raw"), ("shmem", "shmem_raw")):
        post = _us(spans[(phase, f"{layer}.post_write")])
        m[f"{layer}.post_write_us.p50"] = percentile(post, 50)
        m[f"{layer}.post_write_us.p99"] = percentile(post, 99)
    read = _us(spans[("shmem_raw", "shmem.read")])
    m["shmem.read_us.p50"] = percentile(read, 50)
    m["shmem.read_us.p99"] = percentile(read, 99)
    shmem_rate = _aggregate_rate(spans[("shmem_raw", "shmem.write_loop")])
    m["shmem.write_gbps"] = shmem_rate / 1e9

    # dstorm: scatter/gather with a no-op consumer, flow tracing on.
    d_scatter = _us(spans[("dstorm", "dstorm.scatter")])
    d_gather = _us(spans[("dstorm", "dstorm.gather")])
    m["dstorm.scatter_us.p50"] = percentile(d_scatter, 50)
    m["dstorm.scatter_us.p99"] = percentile(d_scatter, 99)
    m["dstorm.gather_us.p50"] = percentile(d_gather, 50)
    m["dstorm.gather_us.p99"] = percentile(d_gather, 99)
    m["dstorm.writes_per_example"] = c.get("dstorm.objects_sent", 0) / examples
    gathers = c.get("dstorm.gathers", 0)
    slots = gathers * run["in_degree_mean"] * run["queue_depth"]
    m["dstorm.gather_yield"] = _ratio(c.get("dstorm.objects_folded", 0), slots)
    m["dstorm.stale_drops_per_gather"] = _ratio(c.get("dstorm.stale_objects_dropped", 0), gathers)
    m["dstorm.torn_skips_per_gather"] = _ratio(c.get("dstorm.torn_slots_skipped", 0), gathers)
    m["dstorm.overwrites_per_scatter"] = _ratio(c.get("dstorm.overwrites_on_full", 0),
                                                c.get("dstorm.scatters", 0))
    # Delivered bytes per second spent inside dstorm Scatter/Gather, against
    # bytes per second spent inside the transport's PostWrite at the same
    # write size. Time is a rank's own on shmem, where ranks overlap, and
    # all ranks' under sim, where they take turns.
    def busy_s(groups):
        busy = defaultdict(float)
        for group in groups:
            for span in group:
                busy[span["rank"]] += (span["end_ns"] - span["start_ns"]) / 1e9
        if not busy:
            return 0.0
        return sum(busy.values()) if sim else statistics.mean(busy.values())

    delivered = sum(s["n"] for s in spans[("dstorm", "dstorm.gather")]) * ladder["payload_bytes"]
    dstorm_rate = _ratio(delivered, busy_s([spans[("dstorm", "dstorm.scatter")],
                                            spans[("dstorm", "dstorm.gather")]]))
    raw_layer, raw_phase = ("simnet", "simnet_raw") if sim else ("shmem", "shmem_raw")
    raw_posts = spans[(raw_phase, f"{raw_layer}.post_write")]
    raw_rate = _ratio(len(raw_posts) * ladder["write_bytes"], busy_s([raw_posts]))
    m["dstorm.efficiency_vs_raw"] = _ratio(dstorm_rate, raw_rate)

    # VOL: the app's own round; fold = VOL gather minus dstorm gather.
    v_scatter = _us(spans[("round", "vol.scatter")])
    v_gather_spans = spans[("round", "vol.gather")]
    v_gather = _us(v_gather_spans)
    m["vol.scatter_us.p50"] = percentile(v_scatter, 50)
    m["vol.scatter_us.p99"] = percentile(v_scatter, 99)
    fold_p50 = max(0.0, percentile(v_gather, 50) - m["dstorm.gather_us.p50"])
    m["vol.fold_us.p50"] = fold_p50
    m["vol.fold_us.p99"] = max(0.0, percentile(v_gather, 99) - m["dstorm.gather_us.p99"])
    values = percentile([s["n"] for s in v_gather_spans], 50)
    m["vol.fold_ns_per_value"] = _ratio(fold_p50 * 1e3, values)
    m["vol.values_folded_per_example"] = c.get("vol.values_folded", 0) / examples

    # ml: per-example SGD step and held-out evaluation.
    step_ns = [us * 1e3 for us in _us(spans[("round", "ml.batch")], per_n=True)]
    m["ml.step_ns.p50"] = percentile(step_ns, 50)
    m["ml.step_ns.p99"] = percentile(step_ns, 99)
    m["ml.eval_ms.p50"] = percentile(_us(spans[("round", "ml.eval")]), 50) / 1e3

    # core: barriers (the round's when BSP, back-to-back otherwise) and the
    # runtime's own phase counters.
    barrier = _us(spans[("round", "core.barrier")]) or _us(spans[("barrier", "core.barrier")])
    m["core.barrier_us.p50"] = percentile(barrier, 50)
    m["core.barrier_us.p99"] = percentile(barrier, 99)
    clock_ns = run["run_clock_s"] * 1e9 * ranks
    phased = 0.0
    for phase in ("compute", "scatter", "gather", "barrier"):
        share = _ratio(c.get(f"worker.{phase}_ns", 0), clock_ns)
        phased += share
        if phase != "compute":
            m[f"core.phase_share.{phase}"] = share
    m["core.phase_share.unphased"] = 1.0 - phased
    m["core.dataset_gen_s"] = statistics.median(r["gen_s"] for r in plain)
    m["core.malt_ctor_s"] = statistics.median(r["ctor_s"] for r in plain)

    # telemetry: flow-event lineage cost per write.
    noflow = _us(spans[("dstorm_noflow", "dstorm.scatter")])
    writes_per_scatter = percentile([s["n"] for s in spans[("dstorm", "dstorm.scatter")]], 50)
    m["telemetry.lineage_ns_per_write"] = _ratio(
        (m["dstorm.scatter_us.p50"] - percentile(noflow, 50)) * 1e3, writes_per_scatter)

    # Wall shares of the plain run, from per-op medians x critical-path ops.
    rounds = c.get("vol.scatters", 0)
    writes = c.get("fabric.writes_posted", 0)
    per_round = _per_round_medians(spans)
    transport_post = m["simnet.post_write_us.p50" if sim else "shmem.post_write_us.p50"]
    evals = 4 * run["epochs"] + 2  # rank 0: evals_per_epoch=4, then final scores
    share_us = {
        "sim": m["sim.handoff_us.p50"] * c.get("engine.slices_run", 0),
        "simnet": transport_post * writes if sim else 0.0,
        "shmem": 0.0 if sim else transport_post * crit(writes),
        "dstorm": (max(0.0, m["dstorm.scatter_us.p50"] - writes_per_scatter * transport_post)
                   + m["dstorm.gather_us.p50"]) * crit(rounds),
        "vol": (max(0.0, m["vol.scatter_us.p50"] - m["dstorm.scatter_us.p50"]) + fold_p50)
               * crit(rounds),
        "ml": m["ml.step_ns.p50"] / 1e3 * crit(examples) + m["ml.eval_ms.p50"] * 1e3 * evals,
        # Flush and barrier wait on other ranks; under sim that wait is
        # other ranks' work, already in their own shares.
        "core": (per_round.get("apps.delta", 0.0) + (0.0 if sim else (
            per_round.get("dstorm.flush", 0.0) + per_round.get("core.barrier", 0.0))))
                * crit(rounds),
    }
    for layer in WALL_SHARES:
        m[f"{layer}.wall_share"] = share_us[layer] * 1e3 / wall_ns
    m["trace.unattributed_share"] = 1.0 - sum(m[f"{layer}.wall_share"] for layer in WALL_SHARES)

    traced_rate = _aggregate_rate(spans[("round", "round")])
    plain_rate = statistics.median(r["examples_per_s"] for r in plain)
    m["trace.overhead"] = 1.0 - _ratio(traced_rate, plain_rate) if traced_rate else 0.0
    return m


def _per_round_medians(spans):
    """name -> median over rounds of the summed duration (us) of that child."""
    rounds = spans[("round", "round")]
    sums = defaultdict(lambda: defaultdict(float))
    for (phase, name), group in spans.items():
        if phase != "round" or name == "round":
            continue
        for s in group:
            sums[name][s["parent"]] += (s["end_ns"] - s["start_ns"]) / 1e3
    out = {}
    for name, by_round in sums.items():
        out[name] = statistics.median(by_round.get(r["id"], 0.0) for r in rounds)
    return out


def round_self_times(path):
    """Span name -> median self time (us) in the traced round phase; the
    round span's own self time is the loop's modeled-compute charges and
    bookkeeping."""
    _, _, spans = load(path)
    group = [s for (phase, _), g in spans.items() if phase == "round" for s in g]
    self_ns = self_times(group)
    by_name = defaultdict(list)
    for s in group:
        by_name[s["name"]].append(self_ns[s["id"]] / 1e3)
    return {name: statistics.median(v) for name, v in sorted(by_name.items())}


def check_shares(m, tol=1e-9):
    """The wall shares plus the unattributed share must sum to 1."""
    total = sum(m[f"{layer}.wall_share"] for layer in WALL_SHARES) + m["trace.unattributed_share"]
    return abs(total - 1.0) <= tol


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ok = True
    for path in argv[1:]:
        plain, ladder, _ = load(path)
        m = summarize(path)
        shares_ok = check_shares(m)
        ok = ok and shares_ok
        print(f"# {ladder['workload']} seed={ladder['seed']} ranks={ladder['ranks']} "
              f"rounds={ladder['rounds']} plain_runs={len(plain)} "
              f"shares_sum_to_1={'yes' if shares_ok else 'NO'}")
        for name, unit in PER_LAYER.items():
            print(f"{name:36s} {m[name]:>16.6g} {unit}")
        print("# round phase, median self time per span (us): "
              + "  ".join(f"{k}={v:.4g}" for k, v in round_self_times(path).items()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
