#include "src/telemetry/telemetry.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#include "src/base/log.h"

namespace malt {

std::string NdjsonRecord(std::string_view type, std::string_view object) {
  std::string line("{\"type\":");
  AppendJsonEscaped(&line, std::string(type));
  // Splice the object's own keys in after the type key ("{}" has none).
  const std::string_view body = object.substr(1);
  if (body.size() > 1) {
    line.push_back(',');
  }
  line.append(body);
  line.push_back('\n');
  return line;
}

TelemetryDomain::TelemetryDomain(int ranks, TelemetryOptions options)
    : options_(std::move(options)) {
  MALT_CHECK(ranks >= 1) << "telemetry domain needs >= 1 rank";
  ranks_.reserve(static_cast<size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    ranks_.push_back(std::make_unique<RankTelemetry>(options_.trace_capacity));
  }
  if (!options_.out_path.empty()) {
    sink_fd_ = ::open(options_.out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC,
                      0644);
    MALT_CHECK(sink_fd_ >= 0) << "cannot open telemetry output '" << options_.out_path
                              << "': " << std::strerror(errno);
  }
}

TelemetryDomain::~TelemetryDomain() {
  if (sink_fd_ >= 0) {
    (void)::close(sink_fd_);
  }
}

MetricRegistry TelemetryDomain::Merged() const {
  MetricRegistry merged;
  for (const auto& rank : ranks_) {
    merged.Merge(rank->metrics);
  }
  return merged;
}

std::string TelemetryDomain::MetricsJson() const {
  std::string out;
  out.append("{\"ranks\":");
  AppendJsonNumber(&out, static_cast<double>(ranks_.size()));
  out.append(",\"aggregate\":");
  Merged().AppendJson(&out);
  out.append(",\"per_rank\":[");
  for (size_t r = 0; r < ranks_.size(); ++r) {
    if (r > 0) {
      out.push_back(',');
    }
    ranks_[r]->metrics.AppendJson(&out);
  }
  out.append("]}");
  return out;
}

std::vector<const TraceRing*> TelemetryDomain::Rings() const {
  std::vector<const TraceRing*> rings;
  rings.reserve(ranks_.size());
  for (const auto& rank : ranks_) {
    rings.push_back(&rank->trace);
  }
  return rings;
}

std::string TelemetryDomain::TraceJson() const {
  std::string out;
  AppendChromeTrace(&out, Rings());
  return out;
}

Status TelemetryDomain::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) {
    return UnavailableError("cannot open trace output '" + path + "'");
  }
  out << TraceJson();
  out.flush();
  if (!out.good()) {
    return UnavailableError("failed writing trace output '" + path + "'");
  }
  return OkStatus();
}

int64_t TelemetryDomain::TraceDropped() const {
  int64_t dropped = 0;
  for (const auto& rank : ranks_) {
    dropped += rank->trace.dropped();
  }
  return dropped;
}

void TelemetryDomain::SyncTraceDroppedCounters() {
  for (auto& rank : ranks_) {
    Counter* c = rank->metrics.GetCounter("telemetry.trace.dropped");
    const int64_t delta = rank->trace.dropped() - c->value();
    if (delta > 0) {
      c->Add(delta);
    }
  }
}

bool TelemetryDomain::WriteLocked(const std::string& line) {
  const ssize_t n = ::write(sink_fd_, line.data(), line.size());
  if (n != static_cast<ssize_t>(line.size())) {
    MALT_LOG_S(kWarning) << "telemetry sink: short write to " << options_.out_path;
    return false;
  }
  ++records_;
  return true;
}

bool TelemetryDomain::Emit(std::string_view type, std::string_view object) {
  if (!has_sink()) {
    return false;
  }
  const std::string line = NdjsonRecord(type, object);
  MutexLock lock(sink_mu_);
  return WriteLocked(line);
}

void TelemetryDomain::Sample(SimTime ts_ns, bool force) {
  if (!has_sink()) {
    return;
  }
  // The aggregation walk happens before taking the sink lock: Merged() reads
  // atomic cells and registry-locked maps, and keeping it outside shortens
  // the window during which concurrent Emit() callers block.
  SyncTraceDroppedCounters();
  const MetricRegistry merged = Merged();

  MutexLock lock(sink_mu_);
  // Collect the deltas first so an all-quiet tick can be skipped entirely.
  std::vector<std::pair<std::string, int64_t>> counter_deltas;
  merged.ForEachCounter([this, &counter_deltas](const std::string& name, int64_t value) {
    sink_mu_.AssertHeld();
    const int64_t delta = value - prev_counters_[name];
    prev_counters_[name] = value;
    if (delta != 0) {
      counter_deltas.emplace_back(name, delta);
    }
  });
  std::string hists;
  merged.ForEachHistogram([this, &hists](const std::string& name, const HistogramMetric& h) {
    sink_mu_.AssertHeld();
    const int64_t count = h.count();
    const int64_t delta = count - prev_hist_counts_[name];
    prev_hist_counts_[name] = count;
    if (delta == 0) {
      return;
    }
    if (!hists.empty()) {
      hists.push_back(',');
    }
    AppendJsonEscaped(&hists, name);
    hists.append(":{\"count\":");
    AppendJsonNumber(&hists, static_cast<double>(count));
    hists.append(",\"delta\":");
    AppendJsonNumber(&hists, static_cast<double>(delta));
    hists.append(",\"p50\":");
    AppendJsonNumber(&hists, h.Percentile(50));
    hists.append(",\"p90\":");
    AppendJsonNumber(&hists, h.Percentile(90));
    hists.append(",\"p99\":");
    AppendJsonNumber(&hists, h.Percentile(99));
    hists.push_back('}');
  });
  if (!force && counter_deltas.empty() && hists.empty()) {
    return;
  }

  std::string rec("{\"seq\":");
  AppendJsonNumber(&rec, static_cast<double>(samples_));
  rec.append(",\"ts_ns\":");
  AppendJsonNumber(&rec, static_cast<double>(ts_ns));
  rec.append(",\"counters\":{");
  bool first = true;
  for (const auto& [name, delta] : counter_deltas) {
    if (!first) {
      rec.push_back(',');
    }
    first = false;
    AppendJsonEscaped(&rec, name);
    rec.push_back(':');
    AppendJsonNumber(&rec, static_cast<double>(delta));
  }
  rec.append("},\"gauges\":{");
  first = true;
  merged.ForEachGauge([&rec, &first](const std::string& name, double value) {
    if (!first) {
      rec.push_back(',');
    }
    first = false;
    AppendJsonEscaped(&rec, name);
    rec.push_back(':');
    AppendJsonNumber(&rec, value);
  });
  rec.append("},\"histograms\":{");
  rec.append(hists);
  rec.append("}}");
  if (WriteLocked(NdjsonRecord("sample", rec))) {
    ++samples_;
  }
}

int64_t TelemetryDomain::samples() const {
  MutexLock lock(sink_mu_);
  return samples_;
}

int64_t TelemetryDomain::records() const {
  MutexLock lock(sink_mu_);
  return records_;
}

}  // namespace malt
