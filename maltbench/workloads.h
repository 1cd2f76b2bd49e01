// Workload definitions for the training benchmark: shape, input generation
// from a seed, the plain (untraced) run through the real app entry points,
// and output verification.

#ifndef MALTBENCH_WORKLOADS_H_
#define MALTBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/apps/svm_app.h"
#include "src/core/options.h"
#include "src/ml/dataset.h"

namespace maltbench {

enum class App { kSvm, kMf };

struct Workload {
  std::string name;
  App app = App::kSvm;
  malt::TransportKind transport = malt::TransportKind::kShmem;
  malt::SyncMode sync = malt::SyncMode::kBSP;
  malt::GraphKind graph = malt::GraphKind::kAll;
  int cb = 1000;
  int queue_depth = 4;
  int epochs = 10;
  int ratings_scale = 1;  // MF only: users, items and training ratings multiplied by this
  // Verification: held-out error may exceed the 1-rank run's by this factor.
  double max_error_ratio = 1.25;
  // SVM only: SvmAppConfig::model_sync_every (0: every round ships deltas).
  int model_sync_every = malt::SvmAppConfig{}.model_sync_every;
};

// The named workloads; aborts on an unknown name.
const Workload& FindWorkload(const std::string& name);

// The generated input of one workload for one seed.
struct Inputs {
  malt::SparseDataset svm;
  malt::RatingsDataset mf;
};
Inputs MakeInputs(const Workload& w, uint64_t seed);
// FNV-1a over every generated value, for the same-seed/same-input test.
uint64_t InputDigest(const Workload& w, const Inputs& in);

// What one plain run produced. Every field is a plain number so the run
// can be printed as one JSON object.
struct Outcome {
  double gen_s = 0;
  double ctor_s = 0;
  double train_s = 0;  // wall time of the RunDistributed* call
  int64_t examples = 0;
  double test_error = 0;  // SVM: 1 - accuracy; MF: RMSE
  double final_loss = 0;  // SVM: held-out hinge loss; MF: RMSE again
  double run_clock_s = 0; // rank 0 finish time on the run's clock
  int64_t messages = 0;
  int64_t expected_messages = 0;
  int64_t bytes = 0;
  double in_degree_mean = 0;  // dataflow in-edges per rank
  double peak_rss_mb = 0;
  // Summed over ranks: the runtime's own counters (dstorm.*, vol.*,
  // worker.*_ns, fabric.*) plus engine.* under sim.
  std::map<std::string, double> counters;
};

Outcome RunPlain(const Workload& w, uint64_t seed, int ranks);

// Per-seed references that verification compares against.
struct Reference {
  double error_1rank = 0;  // test_error of the 1-rank run, same seed
  double sim_loss = 0;     // SVM: final hinge loss of the 4-rank sim run
};
Reference ComputeReference(const Workload& w, uint64_t seed, int ranks);

// Verification thresholds derived from a Reference.
struct Limits {
  double max_test_error = 0;
  double max_loss = 0;  // <= 0: no loss check (MF)
};
Limits LimitsFor(const Workload& w, const Reference& ref);

// The failed checks of one run; empty when it passed.
std::vector<std::string> Verify(const Outcome& o, const Limits& limits);

// Plants bad outputs (a model with doubled or negated weights, a dropped
// message) and confirms Verify rejects each while accepting the clean
// model. Returns the number of planted outputs that were NOT rejected plus
// the number of clean outputs that were; prints one line per case.
int SelfTest(const Workload& w, uint64_t seed);

}  // namespace maltbench

#endif  // MALTBENCH_WORKLOADS_H_
