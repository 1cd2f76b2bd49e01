#!/usr/bin/env python3
"""Render a malt_run telemetry file (--telemetry_out) as human-readable tables.

  python3 tools/malt_report.py FILE.ndjson [--trace t.json]
  python3 tools/malt_report.py --selftest

FILE.ndjson holds one typed record per line; the report dispatches on "type":

  sample         stream timeline: one row per sampler tick with the busiest
                 counter deltas (--metrics_interval_ms)
  critical_path  per-epoch critical path (which rank bounded each epoch, its
                 compute/scatter/gather/wait split, who it waited on) and the
                 straggler summary
  metrics        run-end report: per-edge communication table
                 (comm.edge.<src>-<dst>.*) and rank watermarks
                 (health.rank.<r>.*)
  check          protocol-checker summary (violations by kind)
  postmortem     one row per flight-recorder dump, plus the watermarks of the
                 last dump

With --trace (the Chrome trace written by --trace_out), the report also
prints the per-rank phase breakdown (compute/scatter/gather/barrier B/E
spans, the paper's Fig. 8 view) and the flow summary (update flows sent 's',
applied 't', consumed 'f', complete s->t->f triples, send->apply latency).

Example:
  malt_run --app=svm --ranks=8 --transport=shmem --slow_rank=3 \\
           --telemetry_out=run.ndjson --metrics_interval_ms=50 --trace_out=t.json
  python3 tools/malt_report.py run.ndjson --trace t.json
"""

import argparse
import collections
import io
import json
import re
import sys
from pathlib import Path

RECORD_TYPES = ("sample", "critical_path", "metrics", "check", "postmortem")
EDGE_RE = re.compile(r"^comm\.edge\.(\d+)-(\d+)\.([a-z_]+)$")
HEALTH_RE = re.compile(r"^health\.rank\.(\d+)\.([a-z_]+)$")
PHASES = ("compute", "scatter", "gather", "barrier")
WATERMARK_COLS = ("epoch", "epoch_lag", "wait_frac", "wall_z", "waiting_on",
                  "blame_frac", "straggler_epochs", "dead")
FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "report_fixtures"


def fmt_ns(ns):
    if ns >= 1e9:
        return "%.3fs" % (ns / 1e9)
    if ns >= 1e6:
        return "%.3fms" % (ns / 1e6)
    if ns >= 1e3:
        return "%.1fus" % (ns / 1e3)
    return "%dns" % int(ns)


def table(headers, rows):
    rows = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    out = [line, "-" * len(line)]
    for r in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(out)


def load_records(path):
    """Typed records grouped by type; any other line is an error."""
    by_type = {t: [] for t in RECORD_TYPES}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            kind = rec.get("type") if isinstance(rec, dict) else None
            if kind not in by_type:
                raise ValueError("%s:%d: unknown record type %r" % (path, lineno, kind))
            by_type[kind].append(rec)
    return by_type


# --- trace ------------------------------------------------------------------

def report_phases(events):
    # ts in the export is microseconds; spans come from matched B/E pairs.
    spans = collections.defaultdict(float)  # (tid, name) -> total us
    open_at = {}
    for e in events:
        key = (e.get("tid"), e.get("name"))
        if e.get("ph") == "B" and e.get("name") in PHASES:
            open_at[key] = e["ts"]
        elif e.get("ph") == "E" and key in open_at:
            spans[key] += e["ts"] - open_at.pop(key)
    if not spans:
        return
    rows = []
    for tid in sorted({tid for tid, _ in spans}):
        total = sum(spans.get((tid, p), 0.0) for p in PHASES)
        row = ["rank %d" % tid]
        for p in PHASES:
            us = spans.get((tid, p), 0.0)
            pct = 100.0 * us / total if total else 0.0
            row.append("%s (%4.1f%%)" % (fmt_ns(us * 1e3), pct))
        rows.append(row)
    print("\n== per-rank phase breakdown ==")
    print(table(["rank"] + list(PHASES), rows))


def report_flows(events):
    ids = {ph: set() for ph in "stf"}
    send_ts = {}
    apply_ts = {}
    for e in events:
        ph = e.get("ph")
        if ph in ids and "id" in e:
            ids[ph].add(e["id"])
            if ph == "s":
                send_ts[e["id"]] = e["ts"]
            elif ph == "t":
                apply_ts[e["id"]] = e["ts"]
    if not ids["s"]:
        print("\n== flow summary ==\nno flow events in trace "
              "(run with flow tracing enabled to get s/t/f lineage)")
        return
    triples = ids["s"] & ids["t"] & ids["f"]
    print("\n== flow summary ==")
    print("sent (s): %d   applied (t): %d   consumed (f): %d   "
          "complete s->t->f triples: %d" %
          (len(ids["s"]), len(ids["t"]), len(ids["f"]), len(triples)))
    lost = ids["s"] - ids["t"]
    unconsumed = ids["t"] - ids["f"]
    if lost:
        print("never applied: %d (dead receiver or overwritten in flight)" % len(lost))
    if unconsumed:
        print("applied but never folded: %d (overwritten before gather)" % len(unconsumed))
    lat = sorted(apply_ts[i] - send_ts[i] for i in ids["s"] & ids["t"])
    if lat:
        def q(p):
            return lat[min(len(lat) - 1, int(p * len(lat)))]
        print("send->apply latency: p50=%s p90=%s p99=%s max=%s" %
              (fmt_ns(q(0.5) * 1e3), fmt_ns(q(0.9) * 1e3),
               fmt_ns(q(0.99) * 1e3), fmt_ns(lat[-1] * 1e3)))


# --- sample -----------------------------------------------------------------

def report_samples(samples):
    """Timeline table; returns the cumulative counters and last histograms."""
    if not samples:
        return {}, {}
    print("\n== stream timeline (%d samples) ==" % len(samples))
    rows = []
    for r in samples:
        counters = r.get("counters", {})
        top = sorted(((v, k) for k, v in counters.items()
                      if not k.startswith("comm.edge.")), reverse=True)[:3]
        rows.append([r["seq"], fmt_ns(r["ts_ns"]),
                     ", ".join("%s+%d" % (k, v) for v, k in top) or "(quiet)"])
    print(table(["seq", "ts", "top counter deltas"], rows))
    # Cumulative view: sum counter deltas, keep the last histogram snapshot.
    counters = collections.Counter()
    histograms = {}
    for r in samples:
        for k, v in r.get("counters", {}).items():
            counters[k] += v
        histograms.update(r.get("histograms", {}))
    dropped = counters.get("telemetry.trace.dropped", 0)
    if dropped:
        print("warning: %d trace events dropped during the run" % dropped)
    return counters, histograms


# --- metrics ----------------------------------------------------------------

def report_edges(counters, histograms):
    edges = collections.defaultdict(dict)
    for source in (counters, histograms):
        for name, value in source.items():
            m = EDGE_RE.match(name)
            if m:
                edges[(int(m.group(1)), int(m.group(2)))][m.group(3)] = value
    if not edges:
        return
    rows = []
    for (src, dst), cells in sorted(edges.items()):
        delivery = cells.get("delivery_ns") or {}
        staleness = cells.get("staleness_epochs") or {}
        rows.append([
            "%d->%d" % (src, dst),
            cells.get("msgs", 0),
            cells.get("bytes", 0),
            fmt_ns(delivery["p50"]) if "p50" in delivery else "-",
            fmt_ns(delivery["p99"]) if "p99" in delivery else "-",
            "%.1f" % staleness["p50"] if "p50" in staleness else "-",
        ])
    print("\n== per-edge communication ==")
    print(table(["edge", "msgs", "bytes", "deliver p50", "deliver p99",
                 "staleness p50 (epochs)"], rows))


def report_watermarks(gauges):
    per_rank = collections.defaultdict(dict)
    for name, value in gauges.items():
        m = HEALTH_RE.match(name)
        if m:
            per_rank[int(m.group(1))][m.group(2)] = value
    if not per_rank:
        return
    print("\n== rank watermarks ==")
    rows = []
    for rank in sorted(per_rank):
        g = per_rank[rank]
        flags = []
        if g.get("dead"):
            flags.append("DEAD")
        if g.get("straggler_epochs", 0) > 0:
            flags.append("STRAGGLER")
        rows.append([rank] +
                    [("%g" % g[c]) if c in g else "-" for c in WATERMARK_COLS] +
                    [" ".join(flags)])
    print(table(["rank"] + list(WATERMARK_COLS) + [""], rows))


# --- critical_path ----------------------------------------------------------

def report_critical_paths(paths):
    if not paths:
        return
    print("\n== per-epoch critical path (%d epochs) ==" % len(paths))
    rows = []
    for p in paths:
        wall = max(p["wall_ns"], 1)
        split = "/".join("%d%%" % round(100.0 * p[k] / wall)
                         for k in ("compute_ns", "scatter_ns", "gather_ns", "wait_ns"))
        waiting = ("rank %d (%s)" % (p["waiting_on"], fmt_ns(p["waiting_on_ns"]))
                   if p.get("waiting_on", -1) >= 0 else "-")
        rows.append([
            p["epoch"], p["ranks"], p["critical_rank"], fmt_ns(p["wall_ns"]),
            split, waiting, "%.2f" % p.get("max_z", 0.0),
            p["straggler"] if p.get("straggler", -1) >= 0 else "-",
        ])
    print(table(["epoch", "ranks", "critical rank", "wall",
                 "comp/scat/gath/wait", "waiting on", "max z", "straggler"], rows))

    flagged = collections.Counter(p["straggler"] for p in paths
                                  if p.get("straggler", -1) >= 0)
    critical = collections.Counter(p["critical_rank"] for p in paths
                                   if p.get("critical_rank", -1) >= 0)
    print("\n== straggler summary ==")
    if not flagged:
        print("no epochs flagged a straggler")
    rows = [[r, critical.get(r, 0), flagged.get(r, 0),
             "STRAGGLER" if flagged.get(r, 0) else ""]
            for r in sorted(set(flagged) | set(critical))]
    print(table(["rank", "epochs critical", "epochs flagged", ""], rows))


# --- check ------------------------------------------------------------------

def report_check(check):
    print("\n== protocol check ==")
    print("level=%s events=%d violations=%d lost_updates=%d" %
          (check.get("level"), check.get("events", 0), check.get("violations", 0),
           check.get("lost_updates", 0)))
    rows = [[kind, count] for kind, count in sorted(check.get("by_kind", {}).items())]
    if rows:
        print(table(["kind", "violations"], rows))
    for v in check.get("samples", []):
        print("  [%s] rank %d at %s: %s" %
              (v["kind"], v["rank"], fmt_ns(v["time_ns"]), v["detail"]))


# --- postmortem -------------------------------------------------------------

def report_postmortems(records):
    if not records:
        return
    print("\n== postmortem records (%d) ==" % len(records))
    rows = []
    for r in records:
        sections = r.get("sections", {})
        extra = ""
        if "signal" in r:
            extra = "signal %d" % r["signal"]
        elif "checker" in sections:
            extra = "%d violations" % sections["checker"].get("violations", 0)
        rows.append([r.get("reason", "?"), fmt_ns(r.get("ts_ns", 0)),
                     ",".join(sorted(sections)) or "-", extra])
    print(table(["reason", "ts", "sections", ""], rows))
    # Surface the recorded watermarks of the last dump that carried them.
    for r in reversed(records):
        wm = r.get("sections", {}).get("watermarks")
        if wm:
            rows = [[w.get("rank"), w.get("epoch"), w.get("straggler_epochs"),
                     "DEAD" if w.get("dead") else ""] for w in wm]
            print("\n== watermarks at last dump ==")
            print(table(["rank", "last epoch", "straggler epochs", ""], rows))
            break


def report(path, trace=None):
    records = load_records(path)
    print("%s: %s" % (path, ", ".join("%d %s" % (len(records[t]), t)
                                       for t in RECORD_TYPES)))
    if trace:
        with open(trace) as f:
            doc = json.load(f)
        events = doc["traceEvents"] if isinstance(doc, dict) else doc
        print("trace: %d events" % len(events))
        report_phases(events)
        report_flows(events)
    counters, histograms = report_samples(records["sample"])
    report_critical_paths(records["critical_path"])
    gauges = {}
    if records["metrics"]:
        # The run-end metrics record is authoritative (absolute totals).
        agg = records["metrics"][-1]["aggregate"]
        counters = agg.get("counters", {})
        histograms = agg.get("histograms", {})
        gauges = agg.get("gauges", {})
    report_edges(counters, histograms)
    report_watermarks(gauges)
    for check in records["check"]:
        report_check(check)
    report_postmortems(records["postmortem"])


def selftest():
    """Renders the fixture run and checks every section; rejects bad types."""
    out = io.StringIO()
    stdout, sys.stdout = sys.stdout, out
    try:
        report(str(FIXTURES / "run.ndjson"), str(FIXTURES / "trace.json"))
    finally:
        sys.stdout = stdout
    text = out.getvalue()
    expected = [
        r"1 sample, 3 critical_path, 1 metrics, 1 check, 1 postmortem",
        r"== per-rank phase breakdown ==",
        r"== flow summary ==\nsent \(s\): 2   applied \(t\): 2   consumed \(f\): 1   "
        r"complete s->t->f triples: 1",
        r"== stream timeline \(1 samples\) ==",
        r"== per-epoch critical path \(3 epochs\) ==",
        r"(?m)^2 .*STRAGGLER",
        r"== per-edge communication ==\n.*\n.*\n0->1 +4 +4096 +2.0us",
        r"== rank watermarks ==",
        r"== protocol check ==\nlevel=cheap events=12 violations=1",
        r"\[stale_read\] rank 1",
        r"== postmortem records \(1\) ==\n.*\n.*\nchecker_violation .*1 violations",
        r"== watermarks at last dump ==",
    ]
    missing = [pat for pat in expected if not re.search(pat, text)]
    for pat in missing:
        print("selftest: missing /%s/" % pat, file=sys.stderr)
    bad = FIXTURES / "bad_type.ndjson"
    try:
        load_records(str(bad))
        print("selftest: %s was not rejected" % bad, file=sys.stderr)
        missing.append("reject")
    except ValueError:
        pass
    if missing:
        print(text, file=sys.stderr)
        return 1
    print("malt_report selftest OK (%d checks)" % (len(expected) + 1))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("telemetry", nargs="?", help="NDJSON telemetry file (--telemetry_out)")
    ap.add_argument("--trace", help="Chrome trace JSON (--trace_out)")
    ap.add_argument("--selftest", action="store_true", help="check the report on the fixtures")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.telemetry:
        ap.error("need a telemetry file (or --selftest)")
    report(args.telemetry, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
