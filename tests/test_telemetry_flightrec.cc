// Crash flight recorder (src/telemetry/flightrec.h): "postmortem" records
// in the telemetry sink for abnormal run endings. Covers the record shape,
// that nothing is written before a dump (a clean run writes no postmortem),
// multi-dump appends, the pre-serialized signal snapshot, and the
// runtime-wired triggers — a forced checker violation and a
// watchdog/fail-stop kill must each leave a complete postmortem record on
// BOTH transports. The shmem cases run real concurrent threads
// (tools/check.sh re-runs this suite under ThreadSanitizer).

#include "src/telemetry/flightrec.h"

#include <gtest/gtest.h>

#include <csignal>
#include <fstream>
#include <string>
#include <vector>

#include "src/base/log.h"
#include "src/core/runtime.h"

namespace malt {
namespace {

// The sink's lines of one record type.
std::vector<std::string> Records(const std::string& path, const std::string& type) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("{\"type\":\"" + type + "\"", 0) == 0) {
      lines.push_back(line);
    }
  }
  return lines;
}

std::string Joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line + "\n";
  }
  return out;
}

TelemetryOptions SinkAt(const std::string& path) {
  TelemetryOptions topt;
  topt.out_path = path;
  return topt;
}

TEST(FlightRecorder, NothingBeforeDumpThenAppendingDumps) {
  const std::string path = testing::TempDir() + "fr_unit.ndjson";
  {
    TelemetryDomain sink(1, SinkAt(path));
    FlightRecorder fr(&sink);
    int renders = 0;
    fr.AddSection("probe", [&renders](std::string* out) {
      ++renders;
      out->append("{\"calls\":");
      out->append(std::to_string(renders));
      out->push_back('}');
    });
    EXPECT_EQ(sink.records(), 0) << "no dump yet: nothing may be written";
    EXPECT_TRUE(fr.Dump("first", 100));
    EXPECT_TRUE(fr.Dump("second", 200));
    EXPECT_EQ(fr.dumps(), 2);
  }
  const std::vector<std::string> lines = Records(path, "postmortem");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"type\":\"postmortem\",\"reason\":\"first\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"ts_ns\":100"), std::string::npos);
  EXPECT_NE(lines[0].find("\"probe\":{\"calls\":1}"), std::string::npos);
  EXPECT_NE(lines[1].find("\"reason\":\"second\""), std::string::npos);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
}

TEST(FlightRecorder, SnapshotIsPreSerializedForTheSignalPath) {
  const std::string path = testing::TempDir() + "fr_snap.ndjson";
  TelemetryDomain sink(1, SinkAt(path));
  FlightRecorder fr(&sink);
  fr.AddSection("state", [](std::string* out) { out->append("\"ok\""); });
  fr.RefreshSnapshot(42);
  // Dump still renders live (snapshot is only for the handler), and the
  // snapshot machinery must not have written to the sink.
  EXPECT_EQ(sink.records(), 0);
  EXPECT_TRUE(fr.Dump("check", 43));
  EXPECT_NE(Joined(Records(path, "postmortem")).find("\"state\":\"ok\""), std::string::npos);
}

// A protocol violation must leave both the run-end "check" record and a
// complete postmortem record in the one sink, via the same driver path
// malt_run uses (DumpPostmortem before exit 3). malt_run cannot plant a
// violation, so this test plants one mid-run.
void RunCheckerViolationBundle(TransportKind transport) {
  const std::string path = testing::TempDir() + "fr_check_" +
                           (transport == TransportKind::kSim ? "sim" : "shmem") + ".ndjson";
  MaltOptions options;
  options.transport = transport;
  options.ranks = 2;
  options.check = CheckLevel::kCheap;
  options.telemetry.out_path = path;
  Malt malt(options);
  malt.Run([&malt](Worker& w) {
    MaltVector v = w.CreateVector("model", 16);
    w.BeginEpoch(0);
    ASSERT_TRUE(v.Scatter().ok());
    ASSERT_TRUE(w.Barrier().ok());
    if (w.rank() == 0) {
      malt.checker().ReportViolation("test-forced", 0, 7, "planted violation");
    }
  });
  EXPECT_TRUE(Records(path, "postmortem").empty())
      << "the runtime must not dump for a violation; the driver does";
  const std::vector<std::string> checks = Records(path, "check");
  ASSERT_EQ(checks.size(), 1u);
  EXPECT_NE(checks[0].find("\"violations\":1"), std::string::npos) << checks[0];
  EXPECT_NE(checks[0].find("test-forced"), std::string::npos) << checks[0];
  malt.DumpPostmortem("checker_violation");
  const std::vector<std::string> dumps = Records(path, "postmortem");
  ASSERT_EQ(dumps.size(), 1u);
  const std::string& bundle = dumps[0];
  EXPECT_NE(bundle.find("\"reason\":\"checker_violation\""), std::string::npos);
  for (const char* section :
       {"\"options\":", "\"metrics\":", "\"watermarks\":", "\"critical_paths\":",
        "\"checker\":", "\"vclocks\":", "\"trace_tail\":"}) {
    EXPECT_NE(bundle.find(section), std::string::npos) << section;
  }
  EXPECT_NE(bundle.find("test-forced"), std::string::npos)
      << "checker section must carry the violation";
}

TEST(FlightRecorderEndToEnd, CheckerViolationBundleUnderSim) {
  RunCheckerViolationBundle(TransportKind::kSim);
}

TEST(FlightRecorderEndToEnd, CheckerViolationBundleUnderShmem) {
  RunCheckerViolationBundle(TransportKind::kShmem);
}

// A mid-run kill must leave a bundle without any driver involvement: the
// shmem watchdog dumps at delivery, the sim runtime at run end; both paths
// also record the death in the health watermarks.
void RunKillBundle(TransportKind transport) {
  const std::string path = testing::TempDir() + "fr_kill_" +
                           (transport == TransportKind::kSim ? "sim" : "shmem") + ".ndjson";
  MaltOptions options;
  options.transport = transport;
  options.ranks = 4;
  options.telemetry.out_path = path;
  Malt malt(options);
  malt.ScheduleKill(1, 0.02);
  malt.Run([&](Worker& w) {
    MaltVector v = w.CreateVector("model", 16);
    for (int epoch = 0; epoch < 8; ++epoch) {
      w.BeginEpoch(epoch);
      w.InjectDelay(0.01);  // real wall time under shmem, so the kill lands
      ASSERT_TRUE(v.Scatter().ok());
      ASSERT_TRUE(w.Barrier().ok());
    }
  });
  EXPECT_EQ(malt.survivors(), 3);
  const std::vector<std::string> dumps = Records(path, "postmortem");
  ASSERT_FALSE(dumps.empty());
  const std::string bundle = Joined(dumps);
  EXPECT_NE(bundle.find("\"reason\":\"rank_death\""), std::string::npos);
  if (transport == TransportKind::kShmem) {
    EXPECT_NE(bundle.find("\"reason\":\"watchdog_kill\""), std::string::npos);
  }
  for (const char* section : {"\"options\":", "\"metrics\":", "\"watermarks\":", "\"vclocks\":"}) {
    EXPECT_NE(bundle.find(section), std::string::npos) << section;
  }
  // The last postmortem's watermarks must mark rank 1 dead.
  EXPECT_NE(dumps.back().find("\"rank\":1,"), std::string::npos);
  EXPECT_NE(dumps.back().find("\"dead\":1"), std::string::npos);
}

TEST(FlightRecorderEndToEnd, KillLeavesBundleUnderSim) { RunKillBundle(TransportKind::kSim); }

TEST(FlightRecorderEndToEnd, KillLeavesBundleUnderShmem) {
  RunKillBundle(TransportKind::kShmem);
}

}  // namespace
}  // namespace malt
