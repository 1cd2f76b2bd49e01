// Rank-health layer: epoch critical-path profiling and online straggler
// detection (DESIGN.md §8 "Health & postmortem").
//
// Every Worker reports an EpochReport when it closes a training epoch: the
// per-phase time deltas charged by PhaseScope (compute / scatter / gather /
// barrier), the blocking-wait portion of that time, and — recorded at the
// barrier/SSP wait sites themselves — WHICH peer it spent the longest time
// waiting on. The HealthMonitor folds these into three outputs:
//
//   1. Critical path. Once every active rank has closed epoch E, the rank
//      with the largest wall time is the epoch's critical rank; its phase
//      split IS the epoch's critical path (everyone else finished under it
//      and then waited). One record per epoch goes into the telemetry sink
//      (TelemetryDomain::Emit), rendered by AppendCriticalPathJson:
//
//        {"type":"critical_path","epoch":E,"ts_ns":...,"ranks":n,
//         "critical_rank":r,"wall_ns":...,"compute_ns":...,"scatter_ns":...,
//         "gather_ns":...,"wait_ns":...,"waiting_on":b,"waiting_on_ns":...,
//         "mean_wall_ns":...,"max_z":...,"most_blamed":m,
//         "max_blame_frac":...,"straggler":s}
//
//      (straggler: the rank flagged for this epoch, -1 if none; waiting_on:
//      the peer the critical rank itself blocked on, -1 if it never waited.)
//
//   2. Watermarks. Rolling per-rank progress gauges, minted only through
//      HealthMetricName() (lint-enforced), written into each rank's own
//      registry so Merged() carries exactly one cell per name:
//
//        health.rank.<r>.epoch         newest epoch this rank closed
//        health.rank.<r>.epoch_lag     max(all ranks' epoch) - own epoch
//        health.rank.<r>.wait_frac     waiting share of last epoch's wall
//        health.rank.<r>.wall_z        leave-one-out z of last epoch's wall
//        health.rank.<r>.waiting_on    peer blamed for the longest wait (-1)
//        health.rank.<r>.blame_frac    mean fraction of the last finalized
//                                      epoch each peer spent blocked on r
//        health.rank.<r>.straggler_epochs  epochs this rank was flagged
//        health.rank.<r>.dead          1 after the rank failed
//
//   3. Straggler flags. Two independent signals flag rank r for epoch E:
//      - Wall divergence (ASP/SSP, where ranks run free): r's wall time sits
//        more than Options::z_threshold leave-one-out standard deviations
//        above the OTHER ranks' mean (a whole-population z caps at
//        sqrt(n-1), unreachable at small rank counts) AND at least
//        Options::min_ratio times the epoch mean (the ratio guard keeps a
//        tight epoch from flagging noise).
//      - Blame (BSP, where barriers equalize everyone's wall time): the time
//        the OTHER ranks spent blocked on r — summed from their per-peer
//        wait attributions — averages more than Options::blame_threshold of
//        the epoch per peer, and r is the most-blamed rank. The slow rank
//        itself looks normal under BSP; its victims' waits are the evidence.
//      Post-run, straggler_epochs(r) answers "how often", and malt_run
//      prints a warning per flagged rank.
//
// Concurrency: OnEpochClose runs on each rank's own thread (real OS threads
// under shmem); all cross-rank state lives behind one Mutex. Gauge writes
// are relaxed atomics on cells owned by this class, so the wall-clock
// sampler can read them mid-run, TSan-clean.

#ifndef SRC_TELEMETRY_HEALTH_H_
#define SRC_TELEMETRY_HEALTH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/time_units.h"
#include "src/telemetry/telemetry.h"

namespace malt {

// What one rank did during one epoch, as charged by the runtime's own
// instrumentation (PhaseScope counters diffed at the epoch boundaries).
struct EpochReport {
  int rank = -1;
  int64_t epoch = -1;
  SimTime start_ts = 0;
  SimTime end_ts = 0;
  int64_t compute_ns = 0;
  int64_t scatter_ns = 0;
  int64_t gather_ns = 0;
  int64_t barrier_ns = 0;   // total time inside the barrier phase
  int64_t wait_ns = 0;      // blocking portion (barrier_wait + ssp_wait)
  int waiting_on = -1;      // peer charged with the longest wait, -1 if none
  int64_t waiting_on_ns = 0;
  // Full per-peer blocking-wait attribution (index = peer rank); the blame
  // detector sums these across ranks. May be empty (treated as all-zero).
  std::vector<int64_t> wait_on_ns;

  int64_t wall_ns() const { return end_ts - start_ts; }
};

// One finalized epoch across the cluster (also embedded in postmortems).
struct CriticalPathRecord {
  int64_t epoch = -1;
  SimTime ts_ns = 0;        // when the epoch was finalized
  int ranks_reporting = 0;
  int critical_rank = -1;
  int64_t wall_ns = 0;      // the critical rank's wall time
  int64_t compute_ns = 0;   // ... and its phase split
  int64_t scatter_ns = 0;
  int64_t gather_ns = 0;
  int64_t wait_ns = 0;
  int waiting_on = -1;
  int64_t waiting_on_ns = 0;
  double mean_wall_ns = 0;  // across reporting ranks
  double max_z = 0;         // largest wall-time z-score this epoch
  int most_blamed = -1;     // rank the others waited on longest, -1 if none
  double max_blame_frac = 0;  // its blame: mean fraction of the epoch each
                              // peer spent blocked on it
  int straggler = -1;       // flagged rank, -1 if none
};

// The one renderer of a CriticalPathRecord: the sink's "critical_path"
// record body and the postmortem's critical_paths section entries.
void AppendCriticalPathJson(std::string* out, const CriticalPathRecord& rec);

class HealthMonitor {
 public:
  struct Options {
    double z_threshold = 2.0;  // flag when wall z-score exceeds this ...
    double min_ratio = 1.5;    // ... and wall >= min_ratio * epoch mean
    // Blame signal: flag the most-blamed rank when its peers each lost, on
    // average, more than this fraction of the epoch blocked on it.
    double blame_threshold = 0.35;
  };

  HealthMonitor(TelemetryDomain* telemetry, int ranks) : HealthMonitor(telemetry, ranks, Options()) {}
  HealthMonitor(TelemetryDomain* telemetry, int ranks, Options options);

  // Called from rank `report.rank`'s own thread when it closes an epoch.
  void OnEpochClose(const EpochReport& report);

  // The rank died (watchdog kill / fail-stop): stop waiting for its epoch
  // reports and finalize any epochs now complete without it.
  void OnRankDead(int rank, SimTime now);

  // Run end: finalizes trailing epochs that never saw every rank.
  void Finish(SimTime now);

  // --- post-run / postmortem accessors --------------------------------------

  std::vector<CriticalPathRecord> critical_paths() const;
  int64_t straggler_epochs(int rank) const;
  int64_t epochs_profiled() const;
  // Per-rank watermark snapshot as a JSON array (one object per rank) for
  // the flight recorder. Safe to call mid-run.
  std::string WatermarksJson() const;

 private:
  struct RankState {
    bool active = true;
    int64_t last_epoch = -1;
    int64_t straggler_epochs = 0;
    // Watermark gauges, resolved once against the rank's own registry.
    Gauge* g_epoch = nullptr;
    Gauge* g_epoch_lag = nullptr;
    Gauge* g_wait_frac = nullptr;
    Gauge* g_wall_z = nullptr;
    Gauge* g_waiting_on = nullptr;
    Gauge* g_blame_frac = nullptr;
    Gauge* g_straggler_epochs = nullptr;
    Gauge* g_dead = nullptr;
  };
  struct PendingEpoch {
    std::vector<EpochReport> reports;
  };

  void FinalizeReadyEpochsLocked(SimTime now) MALT_REQUIRES(mu_);
  void FinalizeEpochLocked(int64_t epoch, PendingEpoch& pending, SimTime now)
      MALT_REQUIRES(mu_);
  int ActiveRanksLocked() const MALT_REQUIRES(mu_);

  TelemetryDomain* telemetry_;
  const Options options_;
  const int ranks_;

  mutable Mutex mu_;
  std::vector<RankState> states_ MALT_GUARDED_BY(mu_);
  std::map<int64_t, PendingEpoch> pending_ MALT_GUARDED_BY(mu_);
  std::vector<CriticalPathRecord> finalized_ MALT_GUARDED_BY(mu_);
  int64_t next_finalize_ MALT_GUARDED_BY(mu_) = 0;  // epochs finalize in order
  int64_t max_epoch_ MALT_GUARDED_BY(mu_) = -1;
};

}  // namespace malt

#endif  // SRC_TELEMETRY_HEALTH_H_
