// The traced per-layer run (see ladder.cc for its phases).

#ifndef MALTBENCH_LADDER_H_
#define MALTBENCH_LADDER_H_

#include <cstdint>
#include <string>

#include "maltbench/workloads.h"

namespace maltbench {

struct LadderConfig {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  int ranks = 4;
  double write_bytes = 0;  // mean dstorm wire bytes per write in the plain run
  double scale = 1.0;      // multiplies every phase's round count
  std::string out_path;    // NDJSON span records are appended here
};

void RunLadder(const LadderConfig& config);

}  // namespace maltbench

#endif  // MALTBENCH_LADDER_H_
