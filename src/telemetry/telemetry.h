// Per-rank telemetry bundles and the cluster-wide domain.
//
// One RankTelemetry (metric registry + trace ring) exists per simulated rank;
// the TelemetryDomain owns all of them and provides run-end aggregation
// (a merged MetricRegistry, a JSON metrics report, a Chrome trace_event
// export of every rank's event ring on one timeline) and the run's one
// NDJSON telemetry sink.
//
// The sink (TelemetryOptions::out_path) is an append-only file of typed
// records, one JSON object per line, each carrying a "type" key:
//
//   sample         sampler delta record (Sample(); --metrics_interval_ms)
//   critical_path  one finalized epoch (src/telemetry/health.h)
//   metrics        MetricsJson() at run end
//   check          ProtocolChecker::ReportJson() at run end (level != off)
//   postmortem     flight-recorder dump (src/telemetry/flightrec.h)
//
// Every record goes through Emit(), which writes it with ONE write() on one
// O_APPEND fd under the sink mutex, so lines from concurrent producers never
// interleave. The flight recorder's signal handler writes its pre-rendered
// snapshot to the same fd (sink_fd()) without the mutex.
//
// Ownership: the Malt runtime owns one TelemetryDomain and hands it to the
// fabric and dstorm layers so every subsystem of a rank writes into the same
// registry. Components constructed standalone (unit tests, microbenches)
// fall back to a private domain, so instrumentation never needs null checks.

#ifndef SRC_TELEMETRY_TELEMETRY_H_
#define SRC_TELEMETRY_TELEMETRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/status.h"
#include "src/base/time_units.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace malt {

struct TelemetryOptions {
  // Retained trace events per rank (ring overwrites oldest beyond this).
  size_t trace_capacity = 16384;
  // Emit update-lineage flow events ('s'/'t'/'f') and per-edge delivery
  // histograms for every scatter. On by default; benches turn it off to
  // measure the tracing overhead.
  bool flow_events = true;
  // Background sampler: when > 0 and out_path is set, append a "sample"
  // delta record every interval (virtual time under sim, a wall-clock thread
  // under shmem).
  int metrics_interval_ms = 0;
  // The NDJSON telemetry sink (see the file comment). When non-empty, the
  // runtime also activates a FlightRecorder that appends "postmortem"
  // records here on abnormal endings (checker violation, watchdog kill,
  // rank death, fatal check, fatal signal). Empty: no sink, no sampler, no
  // flight recorder.
  std::string out_path;
  // Also install the async-signal-safe crash handlers (SIGSEGV & friends).
  // Off by default — drivers like malt_run opt in; tests and libraries
  // should not change process-wide signal dispositions.
  bool postmortem_signals = false;
};

struct RankTelemetry {
  explicit RankTelemetry(size_t trace_capacity) : trace(trace_capacity) {}

  MetricRegistry metrics;
  TraceRing trace;
};

class TelemetryDomain {
 public:
  // Opens (truncating) options.out_path when set; an unopenable path is a
  // fatal check, like any other unwritable output.
  explicit TelemetryDomain(int ranks, TelemetryOptions options = TelemetryOptions{});
  ~TelemetryDomain();

  TelemetryDomain(const TelemetryDomain&) = delete;
  TelemetryDomain& operator=(const TelemetryDomain&) = delete;

  int ranks() const { return static_cast<int>(ranks_.size()); }
  const TelemetryOptions& options() const { return options_; }
  RankTelemetry& rank(int r) { return *ranks_[static_cast<size_t>(r)]; }
  const RankTelemetry& rank(int r) const { return *ranks_[static_cast<size_t>(r)]; }

  // Cluster-wide aggregate: counters add, gauges sum, histograms merge.
  MetricRegistry Merged() const;

  // {"ranks":N,"aggregate":{...},"per_rank":[{...},...]}
  std::string MetricsJson() const;

  // All ranks' trace rings as one Chrome trace_event JSON (tid = rank).
  std::string TraceJson() const;
  [[nodiscard]] Status WriteChromeTrace(const std::string& path) const;

  // Total events overwritten across all rings (0 means the export is
  // complete; nonzero means only the newest window per rank survived).
  int64_t TraceDropped() const;

  // Mirrors each ring's dropped() into that rank's
  // "telemetry.trace.dropped" counter (delta-add, so repeated calls are
  // idempotent). The sampler calls this every tick; the runtime calls it
  // once more at run end so exports always carry the loss count.
  void SyncTraceDroppedCounters();

  // --- NDJSON sink ------------------------------------------------------------

  bool has_sink() const { return sink_fd_ >= 0; }
  // The sink's fd (-1 without a sink), for async-signal-safe writers only.
  int sink_fd() const { return sink_fd_; }

  // Appends `object` (one rendered JSON object) as a record of `type`.
  // Thread-safe; returns false without a sink or on a failed write.
  bool Emit(std::string_view type, std::string_view object);

  // Appends a "sample" record stamped `ts_ns`: counter deltas since the
  // previous sample (nonzero only), every gauge, and each histogram whose
  // count moved (count, delta, p50/p90/p99). A tick where nothing moved is
  // skipped unless `force` (the sampler's final record is forced, so every
  // sampled run has at least one). Mirrors trace loss into
  // "telemetry.trace.dropped" first.
  void Sample(SimTime ts_ns, bool force = false);

  // Sample records written so far ("seq" of the next one).
  int64_t samples() const;
  // Records of every type written so far.
  int64_t records() const;

 private:
  std::vector<const TraceRing*> Rings() const;
  // One write() of a complete line; counts it on success.
  bool WriteLocked(const std::string& line) MALT_REQUIRES(sink_mu_);

  TelemetryOptions options_;
  std::vector<std::unique_ptr<RankTelemetry>> ranks_;

  int sink_fd_ = -1;  // fixed at construction
  mutable Mutex sink_mu_;
  int64_t samples_ MALT_GUARDED_BY(sink_mu_) = 0;
  int64_t records_ MALT_GUARDED_BY(sink_mu_) = 0;
  std::map<std::string, int64_t> prev_counters_ MALT_GUARDED_BY(sink_mu_);
  std::map<std::string, int64_t> prev_hist_counts_ MALT_GUARDED_BY(sink_mu_);
};

// `object` (a rendered JSON object) with a leading "type" key and a trailing
// newline: one complete sink line.
std::string NdjsonRecord(std::string_view type, std::string_view object);

}  // namespace malt

#endif  // SRC_TELEMETRY_TELEMETRY_H_
