// The NDJSON telemetry sink (TelemetryDomain::Emit / Sample): one typed
// record per line. Covers the sample record schema (seq/ts_ns/counters/
// gauges/histograms), delta semantics (counters report movement since the
// previous sample, quiet ticks are skipped, a forced sample always writes),
// trace-loss mirroring into telemetry.trace.dropped, the full record schema
// of a checked sim run, and an 8-rank shared-memory stress where the sampler
// thread races real worker threads (tools/check.sh re-runs this suite under
// ThreadSanitizer).

#include "src/telemetry/telemetry.h"

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/runtime.h"

namespace malt {
namespace {

std::vector<std::string> Lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

bool IsType(const std::string& line, const char* type) {
  return line.rfind(std::string("{\"type\":\"") + type + "\"", 0) == 0;
}

std::vector<std::string> OfType(const std::vector<std::string>& lines, const char* type) {
  std::vector<std::string> out;
  for (const std::string& line : lines) {
    if (IsType(line, type)) {
      out.push_back(line);
    }
  }
  return out;
}

// Minimal strict JSON validator (RFC 8259 value grammar), enough to prove
// every sink line is one well-formed document.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) {
      return false;
    }
    pos_ += w.size();
    return true;
  }
  bool String() {
    if (!Eat('"')) {
      return false;
    }
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') {
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return false;
      }
      if (c == '\\') {
        if (pos_ >= s_.size()) {
          return false;
        }
        const char e = s_[pos_++];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= s_.size() || std::isxdigit(static_cast<unsigned char>(s_[pos_++])) == 0) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
    }
    return false;
  }
  bool Digits() {
    const size_t start = pos_;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Number() {
    Eat('-');
    if (!Digits()) {
      return false;
    }
    if (Eat('.') && !Digits()) {
      return false;
    }
    if (Eat('e') || Eat('E')) {
      if (!Eat('+')) {
        Eat('-');
      }
      return Digits();
    }
    return true;
  }
  bool Container(char close, bool keyed) {
    SkipWs();
    if (Eat(close)) {
      return true;
    }
    do {
      SkipWs();
      if (keyed) {
        if (!String()) {
          return false;
        }
        SkipWs();
        if (!Eat(':')) {
          return false;
        }
        SkipWs();
      }
      if (!Value()) {
        return false;
      }
      SkipWs();
    } while (Eat(','));
    return Eat(close);
  }
  bool Value() {
    if (pos_ >= s_.size()) {
      return false;
    }
    switch (s_[pos_]) {
      case '{':
        ++pos_;
        return Container('}', /*keyed=*/true);
      case '[':
        ++pos_;
        return Container(']', /*keyed=*/false);
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

TelemetryOptions SinkAt(const std::string& path) {
  TelemetryOptions topt;
  topt.out_path = path;
  return topt;
}

TEST(Stream, DeltaRecordsSkipQuietTicksAndFinishForces) {
  const std::string path = testing::TempDir() + "stream_unit.ndjson";
  TelemetryDomain domain(2, SinkAt(path));
  Counter* c0 = domain.rank(0).metrics.GetCounter("app.steps");
  Counter* c1 = domain.rank(1).metrics.GetCounter("app.steps");
  HistogramMetric* h = domain.rank(0).metrics.GetHistogram(
      EdgeMetricName(1, 0, "delivery_ns"), EdgeDeliveryHistogramOptions());
  ASSERT_TRUE(domain.has_sink());

  c0->Add(5);
  c1->Add(2);
  h->Observe(1500.0);
  domain.Sample(100);
  c0->Add(3);
  domain.Sample(200);
  domain.Sample(300);                 // nothing moved: skipped
  domain.Sample(400, /*force=*/true);  // unconditional

  EXPECT_EQ(domain.samples(), 3);
  EXPECT_EQ(domain.records(), 3);
  const std::vector<std::string> lines = Lines(path);
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    EXPECT_TRUE(IsType(line, "sample")) << line;
    EXPECT_EQ(line.back(), '}');
    EXPECT_TRUE(JsonValidator(line).Valid()) << line;
    EXPECT_NE(line.find("\"ts_ns\":"), std::string::npos);
  }
  // First record (seq is 0-based): aggregate of both ranks, histogram with
  // count + quantiles.
  EXPECT_NE(lines[0].find("\"seq\":0"), std::string::npos);
  EXPECT_NE(lines[0].find("\"app.steps\":7"), std::string::npos);
  EXPECT_NE(lines[0].find("\"comm.edge.1-0.delivery_ns\":{\"count\":1"), std::string::npos);
  EXPECT_NE(lines[0].find("\"p50\":"), std::string::npos);
  // Second record: only the 3-step delta, no histogram (its count is flat).
  EXPECT_NE(lines[1].find("\"seq\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"app.steps\":3"), std::string::npos);
  EXPECT_EQ(lines[1].find("delivery_ns"), std::string::npos);
  // Final record is the forced sample at ts 400 with nothing new.
  EXPECT_NE(lines[2].find("\"seq\":2"), std::string::npos);
  EXPECT_NE(lines[2].find("\"ts_ns\":400"), std::string::npos);
}

TEST(Stream, NoSinkWritesNothing) {
  TelemetryDomain domain(1);
  EXPECT_FALSE(domain.has_sink());
  EXPECT_FALSE(domain.Emit("metrics", domain.MetricsJson()));
  domain.Sample(1, /*force=*/true);
  EXPECT_EQ(domain.records(), 0);
  EXPECT_EQ(domain.samples(), 0);
}

TEST(Stream, TypeKeyIsSplicedIntoEveryObject) {
  EXPECT_EQ(NdjsonRecord("check", "{\"level\":\"full\"}"),
            "{\"type\":\"check\",\"level\":\"full\"}\n");
  EXPECT_EQ(NdjsonRecord("metrics", "{}"), "{\"type\":\"metrics\"}\n");
}

TEST(Stream, MirrorsTraceLossIntoDroppedCounter) {
  const std::string path = testing::TempDir() + "stream_dropped.ndjson";
  TelemetryOptions topt = SinkAt(path);
  topt.trace_capacity = 4;
  TelemetryDomain domain(1, topt);
  for (int i = 0; i < 10; ++i) {
    domain.rank(0).trace.Instant("tick", i);
  }
  domain.Sample(50, /*force=*/true);
  const std::vector<std::string> lines = Lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"telemetry.trace.dropped\":6"), std::string::npos);
  EXPECT_EQ(domain.Merged().GetCounter("telemetry.trace.dropped")->value(), 6);
}

// 8 concurrent worker threads scatter/gather while the wall-clock sampler
// snapshots the shared registries mid-run. The assertions here are about the
// stream's integrity; the data-race half of the contract is enforced by the
// TSan stage in tools/check.sh re-running this binary.
TEST(Stream, ShmemEightRankSamplerStress) {
  const std::string path = testing::TempDir() + "stream_shmem8.ndjson";
  MaltOptions options;
  options.transport = TransportKind::kShmem;
  options.ranks = 8;
  options.telemetry.metrics_interval_ms = 2;
  options.telemetry.out_path = path;
  Malt malt(options);
  malt.Run([](Worker& w) {
    MaltVector v = w.CreateVector("model", 256);
    for (int round = 0; round < 20; ++round) {
      v.set_iteration(static_cast<uint32_t>(round + 1));
      ASSERT_TRUE(v.Scatter().ok());
      ASSERT_TRUE(w.Barrier().ok());
      v.GatherAverage();
      ASSERT_TRUE(w.Barrier().ok());
    }
  });

  EXPECT_GE(malt.telemetry().samples(), 1);
  const std::vector<std::string> lines = Lines(path);
  // Every record the sink counted landed as one whole line.
  EXPECT_EQ(static_cast<int64_t>(lines.size()), malt.telemetry().records());
  const std::vector<std::string> samples = OfType(lines, "sample");
  ASSERT_GE(samples.size(), 1u);
  EXPECT_EQ(static_cast<int64_t>(samples.size()), malt.telemetry().samples());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].back(), '}');
    std::ostringstream want_seq;
    want_seq << "\"seq\":" << i << ",";
    EXPECT_NE(samples[i].find(want_seq.str()), std::string::npos)
        << "record " << i << " out of sequence: " << samples[i].substr(0, 60);
  }
  // The full run's worth of scatters must be visible across the stream: the
  // per-record deltas of one counter sum to its final merged value.
  int64_t scatters = 0;
  for (const std::string& line : samples) {
    const size_t at = line.find("\"vol.scatters\":");
    if (at != std::string::npos) {
      scatters += std::stoll(line.substr(at + 15));
    }
  }
  EXPECT_EQ(scatters, 8 * 20);
}

// The sim backend samples on VIRTUAL time from an auxiliary engine process:
// records are stamped with the run's virtual clock and the sampler never
// deadlocks the engine (it exits when every rank process finishes).
TEST(Stream, SimSamplerRunsOnVirtualTime) {
  const std::string path = testing::TempDir() + "stream_sim.ndjson";
  MaltOptions options;
  options.transport = TransportKind::kSim;
  options.ranks = 4;
  options.telemetry.metrics_interval_ms = 1;
  options.telemetry.out_path = path;
  Malt malt(options);
  malt.Run([](Worker& w) {
    MaltVector v = w.CreateVector("model", 64);
    for (int round = 0; round < 10; ++round) {
      // Charge enough virtual compute that several 1 ms sampler ticks fire.
      w.ChargeSeconds(0.001);
      v.set_iteration(static_cast<uint32_t>(round + 1));
      ASSERT_TRUE(v.Scatter().ok());
      ASSERT_TRUE(w.Barrier().ok());
      v.GatherAverage();
      ASSERT_TRUE(w.Barrier().ok());
    }
  });
  EXPECT_GE(malt.telemetry().samples(), 3);
  const std::vector<std::string> samples = OfType(Lines(path), "sample");
  ASSERT_GE(samples.size(), 3u);
  // Timestamps are virtual nanoseconds and strictly increase.
  int64_t prev = -1;
  for (const std::string& line : samples) {
    const size_t at = line.find("\"ts_ns\":");
    ASSERT_NE(at, std::string::npos);
    const int64_t ts = std::stoll(line.substr(at + 8));
    EXPECT_GT(ts, prev);
    prev = ts;
  }
}

// The record schema of a whole checked sim run: every line is one valid JSON
// object whose "type" is one of the five known record types; a run with a
// sampler, epochs and the checker on yields sample, critical_path, metrics
// and check records; and a clean run writes no postmortem.
TEST(Stream, CheckedSimRunWritesEveryRecordType) {
  const std::string path = testing::TempDir() + "stream_schema.ndjson";
  MaltOptions options;
  options.transport = TransportKind::kSim;
  options.ranks = 4;
  options.check = CheckLevel::kCheap;
  options.telemetry.metrics_interval_ms = 1;
  options.telemetry.out_path = path;
  Malt malt(options);
  malt.Run([](Worker& w) {
    MaltVector v = w.CreateVector("model", 64);
    for (int epoch = 0; epoch < 4; ++epoch) {
      w.BeginEpoch(epoch);
      w.ChargeSeconds(0.001);
      v.set_iteration(static_cast<uint32_t>(epoch + 1));
      ASSERT_TRUE(v.Scatter().ok());
      ASSERT_TRUE(w.Barrier().ok());
      v.GatherAverage();
    }
  });

  const std::set<std::string> known = {"sample", "critical_path", "metrics", "check",
                                        "postmortem"};
  std::set<std::string> seen;
  const std::vector<std::string> lines = Lines(path);
  ASSERT_FALSE(lines.empty());
  for (const std::string& line : lines) {
    ASSERT_TRUE(JsonValidator(line).Valid()) << line;
    const std::string prefix = "{\"type\":\"";
    ASSERT_EQ(line.rfind(prefix, 0), 0u) << "type must be the first key: " << line;
    const size_t end = line.find('"', prefix.size());
    ASSERT_NE(end, std::string::npos);
    const std::string type = line.substr(prefix.size(), end - prefix.size());
    EXPECT_EQ(known.count(type), 1u) << "unknown record type '" << type << "'";
    seen.insert(type);
  }
  for (const char* type : {"sample", "critical_path", "metrics", "check"}) {
    EXPECT_EQ(seen.count(type), 1u) << "missing " << type << " record";
  }
  EXPECT_EQ(seen.count("postmortem"), 0u) << "a clean run must not dump";
  EXPECT_EQ(OfType(lines, "critical_path").size(), 4u);
  ASSERT_EQ(OfType(lines, "metrics").size(), 1u);
  EXPECT_NE(OfType(lines, "metrics")[0].find("\"per_rank\":["), std::string::npos);
  ASSERT_EQ(OfType(lines, "check").size(), 1u);
  EXPECT_NE(OfType(lines, "check")[0].find("\"level\":\"cheap\""), std::string::npos);
  EXPECT_NE(OfType(lines, "check")[0].find("\"violations\":0"), std::string::npos);
}

// Concurrent writers: rank threads hammer counters and histogram Observe
// while the sampler emits percentile records and another producer emits
// typed critical_path records. Every line must come out whole (the sink lock
// may not interleave records), and the histogram records must carry
// percentiles computed mid-Observe without tearing. TSan re-runs this via
// the shmem label in tools/check.sh.
TEST(Stream, ConcurrentWritersInterleaveObserveAndEmit) {
  const std::string path = testing::TempDir() + "stream_conc.ndjson";
  const int n = 4;
  const int kOps = 3000;
  const int kAppends = 40;
  TelemetryDomain domain(n, SinkAt(path));
  ASSERT_TRUE(domain.has_sink());

  std::vector<std::thread> workers;
  for (int r = 0; r < n; ++r) {
    workers.emplace_back([&domain, r] {
      Counter* c = domain.rank(r).metrics.GetCounter("app.steps");
      HistogramMetric* h = domain.rank(r).metrics.GetHistogram(
          EdgeMetricName(r, (r + 1) % n, "delivery_ns"), EdgeDeliveryHistogramOptions());
      for (int i = 0; i < kOps; ++i) {
        c->Add(1);
        h->Observe(1000.0 + static_cast<double>(i % 97) * 50.0);
      }
    });
  }
  std::thread appender([&domain] {
    for (int i = 0; i < kAppends; ++i) {
      EXPECT_TRUE(domain.Emit("critical_path", "{\"epoch\":" + std::to_string(i) + "}"));
    }
  });
  // Sample from this thread while everything above is in flight.
  int64_t ticks = 0;
  while (ticks < 50) {
    domain.Sample(++ticks * 1000);
  }
  for (std::thread& t : workers) {
    t.join();
  }
  appender.join();
  domain.Sample((ticks + 1) * 1000);  // capture any trailing movement
  domain.Sample((ticks + 2) * 1000, /*force=*/true);

  const std::vector<std::string> lines = Lines(path);
  EXPECT_EQ(static_cast<int64_t>(lines.size()), domain.records());
  int64_t total_steps = 0;
  int typed = 0;
  int histogram_records = 0;
  for (const std::string& line : lines) {
    // Whole records only: one JSON object per line, never torn.
    ASSERT_TRUE(JsonValidator(line).Valid()) << line;
    if (IsType(line, "critical_path")) {
      ++typed;
      continue;
    }
    ASSERT_TRUE(IsType(line, "sample")) << line;
    const size_t at = line.find("\"app.steps\":");
    if (at != std::string::npos) {
      total_steps += std::stoll(line.substr(at + 12));
    }
    if (line.find("delivery_ns") != std::string::npos) {
      ++histogram_records;
      EXPECT_NE(line.find("\"p50\":"), std::string::npos) << line;
      EXPECT_NE(line.find("\"count\":"), std::string::npos) << line;
    }
  }
  EXPECT_EQ(typed, kAppends);
  // Counter deltas across all sample records add up to every op exactly once.
  EXPECT_EQ(total_steps, static_cast<int64_t>(n) * kOps);
  EXPECT_GE(histogram_records, 1);
}

}  // namespace
}  // namespace malt
