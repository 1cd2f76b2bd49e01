// maltbench — one process per benchmark step; run.py drives it.
//
//   maltbench run      --workload=W --seed=N [--ranks=4] [--max_test_error=E --max_loss=L]
//       one plain (untraced) training run; prints one JSON object
//   maltbench ref      --workload=W --seed=N [--ranks=4]
//       the per-seed references verification compares against
//   maltbench ladder   --workload=W --seed=N --write_bytes=B --out=FILE [--scale=S]
//       the traced per-layer run; appends NDJSON span records to FILE
//   maltbench digest   --workload=W --seed=N
//       hash of the generated input
//   maltbench selftest --workload=W --seed=N
//       verification must reject planted bad outputs; exit 1 if not

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "maltbench/ladder.h"
#include "maltbench/workloads.h"
#include "src/base/log.h"

namespace maltbench {
namespace {

std::map<std::string, std::string> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    MALT_CHECK(a.rfind("--", 0) == 0) << "expected --key=value, got '" << a << "'";
    const size_t eq = a.find('=');
    MALT_CHECK(eq != std::string::npos) << "expected --key=value, got '" << a << "'";
    args[a.substr(2, eq - 2)] = a.substr(eq + 1);
  }
  return args;
}

std::string Get(const std::map<std::string, std::string>& args, const std::string& key,
                const std::string& fallback = "") {
  const auto it = args.find(key);
  if (it != args.end()) {
    return it->second;
  }
  MALT_CHECK(!fallback.empty()) << "missing --" << key;
  return fallback;
}

void PrintOutcome(const Workload& w, uint64_t seed, int ranks, const Outcome& o,
                  const std::vector<std::string>& failed) {
  const double examples = static_cast<double>(o.examples);
  std::printf("{\"mode\":\"run\",\"workload\":\"%s\",\"seed\":%llu,\"ranks\":%d",
              w.name.c_str(), static_cast<unsigned long long>(seed), ranks);
  std::printf(",\"transport\":\"%s\",\"sync\":\"%s\",\"epochs\":%d,\"queue_depth\":%d",
              malt::ToString(w.transport).c_str(), malt::ToString(w.sync).c_str(), w.epochs,
              w.queue_depth);
  std::printf(",\"gen_s\":%.9g,\"ctor_s\":%.9g,\"setup_s\":%.9g,\"train_s\":%.9g", o.gen_s,
              o.ctor_s, o.gen_s + o.ctor_s, o.train_s);
  std::printf(",\"examples\":%lld,\"examples_per_s\":%.9g", static_cast<long long>(o.examples),
              examples / o.train_s);
  std::printf(",\"test_error\":%.9g,\"final_loss\":%.9g,\"run_clock_s\":%.9g", o.test_error,
              o.final_loss, o.run_clock_s);
  std::printf(",\"messages\":%lld,\"expected_messages\":%lld,\"bytes\":%lld",
              static_cast<long long>(o.messages), static_cast<long long>(o.expected_messages),
              static_cast<long long>(o.bytes));
  std::printf(",\"wire_bytes_per_example\":%.9g,\"in_degree_mean\":%.9g,\"peak_rss_mb\":%.9g",
              static_cast<double>(o.bytes) / examples, o.in_degree_mean, o.peak_rss_mb);
  std::printf(",\"checks_failed\":[");
  for (size_t i = 0; i < failed.size(); ++i) {
    std::printf("%s\"%s\"", i > 0 ? "," : "", failed[i].c_str());
  }
  std::printf("],\"counters\":{");
  bool first = true;
  for (const auto& [name, value] : o.counters) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  MALT_CHECK(argc >= 2) << "usage: maltbench run|ref|ladder|digest|selftest --workload=W --seed=N";
  const std::string mode = argv[1];
  const auto args = ParseArgs(argc, argv);
  const Workload& w = FindWorkload(Get(args, "workload"));
  const uint64_t seed = std::strtoull(Get(args, "seed").c_str(), nullptr, 10);
  const int ranks = std::atoi(Get(args, "ranks", "4").c_str());
  MALT_CHECK(ranks >= 1) << "--ranks must be >= 1";

  if (mode == "run") {
    const Outcome o = RunPlain(w, seed, ranks);
    Limits limits;
    limits.max_test_error = std::strtod(Get(args, "max_test_error", "1e300").c_str(), nullptr);
    limits.max_loss = std::strtod(Get(args, "max_loss", "0").c_str(), nullptr);
    PrintOutcome(w, seed, ranks, o, Verify(o, limits));
    return 0;
  }
  if (mode == "ref") {
    const Reference ref = ComputeReference(w, seed, ranks);
    const Limits limits = LimitsFor(w, ref);
    std::printf(
        "{\"mode\":\"ref\",\"workload\":\"%s\",\"seed\":%llu,\"error_1rank\":%.9g,"
        "\"sim_loss\":%.9g,\"max_test_error\":%.9g,\"max_loss\":%.9g}\n",
        w.name.c_str(), static_cast<unsigned long long>(seed), ref.error_1rank, ref.sim_loss,
        limits.max_test_error, limits.max_loss);
    return 0;
  }
  if (mode == "ladder") {
    LadderConfig config;
    config.workload = &w;
    config.seed = seed;
    config.ranks = ranks;
    config.write_bytes = std::strtod(Get(args, "write_bytes").c_str(), nullptr);
    config.scale = std::strtod(Get(args, "scale", "1").c_str(), nullptr);
    config.out_path = Get(args, "out");
    MALT_CHECK(config.write_bytes >= 32) << "--write_bytes must be >= 32";
    RunLadder(config);
    return 0;
  }
  if (mode == "digest") {
    std::printf("%016llx\n",
                static_cast<unsigned long long>(InputDigest(w, MakeInputs(w, seed))));
    return 0;
  }
  if (mode == "selftest") {
    return SelfTest(w, seed) == 0 ? 0 : 1;
  }
  MALT_CHECK(false) << "unknown mode '" << mode << "'";
  return 2;
}

}  // namespace
}  // namespace maltbench

int main(int argc, char** argv) { return maltbench::Main(argc, argv); }
