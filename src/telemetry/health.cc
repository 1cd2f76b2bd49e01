#include "src/telemetry/health.h"

#include <algorithm>
#include <cmath>

#include "src/base/log.h"
#include "src/telemetry/metrics.h"

namespace malt {

void AppendCriticalPathJson(std::string* out, const CriticalPathRecord& rec) {
  out->append("{\"epoch\":");
  AppendJsonNumber(out, static_cast<double>(rec.epoch));
  out->append(",\"ts_ns\":");
  AppendJsonNumber(out, static_cast<double>(rec.ts_ns));
  out->append(",\"ranks\":");
  AppendJsonNumber(out, static_cast<double>(rec.ranks_reporting));
  out->append(",\"critical_rank\":");
  AppendJsonNumber(out, static_cast<double>(rec.critical_rank));
  out->append(",\"wall_ns\":");
  AppendJsonNumber(out, static_cast<double>(rec.wall_ns));
  out->append(",\"compute_ns\":");
  AppendJsonNumber(out, static_cast<double>(rec.compute_ns));
  out->append(",\"scatter_ns\":");
  AppendJsonNumber(out, static_cast<double>(rec.scatter_ns));
  out->append(",\"gather_ns\":");
  AppendJsonNumber(out, static_cast<double>(rec.gather_ns));
  out->append(",\"wait_ns\":");
  AppendJsonNumber(out, static_cast<double>(rec.wait_ns));
  out->append(",\"waiting_on\":");
  AppendJsonNumber(out, static_cast<double>(rec.waiting_on));
  out->append(",\"waiting_on_ns\":");
  AppendJsonNumber(out, static_cast<double>(rec.waiting_on_ns));
  out->append(",\"mean_wall_ns\":");
  AppendJsonNumber(out, rec.mean_wall_ns);
  out->append(",\"max_z\":");
  AppendJsonNumber(out, rec.max_z);
  out->append(",\"most_blamed\":");
  AppendJsonNumber(out, static_cast<double>(rec.most_blamed));
  out->append(",\"max_blame_frac\":");
  AppendJsonNumber(out, rec.max_blame_frac);
  out->append(",\"straggler\":");
  AppendJsonNumber(out, static_cast<double>(rec.straggler));
  out->push_back('}');
}

HealthMonitor::HealthMonitor(TelemetryDomain* telemetry, int ranks, Options options)
    : telemetry_(telemetry), options_(options), ranks_(ranks) {
  MutexLock lock(mu_);
  states_.resize(static_cast<size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    MetricRegistry& reg = telemetry_->rank(r).metrics;
    RankState& st = states_[static_cast<size_t>(r)];
    st.g_epoch = reg.GetGauge(HealthMetricName(r, "epoch"));
    st.g_epoch_lag = reg.GetGauge(HealthMetricName(r, "epoch_lag"));
    st.g_wait_frac = reg.GetGauge(HealthMetricName(r, "wait_frac"));
    st.g_wall_z = reg.GetGauge(HealthMetricName(r, "wall_z"));
    st.g_waiting_on = reg.GetGauge(HealthMetricName(r, "waiting_on"));
    st.g_blame_frac = reg.GetGauge(HealthMetricName(r, "blame_frac"));
    st.g_straggler_epochs = reg.GetGauge(HealthMetricName(r, "straggler_epochs"));
    st.g_dead = reg.GetGauge(HealthMetricName(r, "dead"));
    st.g_epoch->Set(-1);
    st.g_waiting_on->Set(-1);
  }
}

int HealthMonitor::ActiveRanksLocked() const {
  int active = 0;
  for (const RankState& st : states_) {
    active += st.active ? 1 : 0;
  }
  return active;
}

void HealthMonitor::OnEpochClose(const EpochReport& report) {
  MALT_CHECK(report.rank >= 0 && report.rank < ranks_) << "bad health rank " << report.rank;
  MutexLock lock(mu_);
  RankState& st = states_[static_cast<size_t>(report.rank)];
  st.last_epoch = std::max(st.last_epoch, report.epoch);
  st.g_epoch->Set(static_cast<double>(st.last_epoch));
  if (report.epoch > max_epoch_) {
    max_epoch_ = report.epoch;
    // The frontier moved: every rank's lag is relative to it.
    for (RankState& other : states_) {
      other.g_epoch_lag->Set(
          static_cast<double>(max_epoch_ - std::max<int64_t>(other.last_epoch, 0)));
    }
  } else {
    st.g_epoch_lag->Set(static_cast<double>(max_epoch_ - st.last_epoch));
  }
  const int64_t wall = std::max<int64_t>(report.wall_ns(), 1);
  st.g_wait_frac->Set(static_cast<double>(report.wait_ns) / static_cast<double>(wall));
  st.g_waiting_on->Set(static_cast<double>(report.waiting_on));

  pending_[report.epoch].reports.push_back(report);
  FinalizeReadyEpochsLocked(report.end_ts);
}

void HealthMonitor::OnRankDead(int rank, SimTime now) {
  MutexLock lock(mu_);
  RankState& st = states_[static_cast<size_t>(rank)];
  st.active = false;
  st.g_dead->Set(1);
  // Epochs blocked on the dead rank's report may be complete now.
  FinalizeReadyEpochsLocked(now);
}

void HealthMonitor::FinalizeReadyEpochsLocked(SimTime now) {
  // In-order finalization: an epoch is ready when every still-active rank
  // has reported it. (Ranks train the same epoch schedule, so the frontier
  // only stalls while some rank is genuinely still inside the epoch.)
  while (true) {
    auto it = pending_.find(next_finalize_);
    if (it == pending_.end() ||
        static_cast<int>(it->second.reports.size()) < ActiveRanksLocked()) {
      return;
    }
    FinalizeEpochLocked(next_finalize_, it->second, now);
    pending_.erase(it);
    ++next_finalize_;
  }
}

void HealthMonitor::FinalizeEpochLocked(int64_t epoch, PendingEpoch& pending, SimTime now) {
  const std::vector<EpochReport>& reports = pending.reports;
  if (reports.empty()) {
    return;
  }
  CriticalPathRecord rec;
  rec.epoch = epoch;
  rec.ts_ns = now;
  rec.ranks_reporting = static_cast<int>(reports.size());

  double sum = 0;
  const EpochReport* critical = &reports[0];
  for (const EpochReport& r : reports) {
    sum += static_cast<double>(r.wall_ns());
    if (r.wall_ns() > critical->wall_ns()) {
      critical = &r;
    }
  }
  const double n = static_cast<double>(reports.size());
  const double mean = sum / n;

  // Blame: total time the other ranks spent blocked on each rank this epoch,
  // normalized to "mean fraction of the epoch lost per peer". Under BSP the
  // barrier equalizes wall times, so this — not the wall z-score — is what
  // exposes the straggler.
  std::vector<double> blamed(static_cast<size_t>(ranks_), 0.0);
  for (const EpochReport& r : reports) {
    for (size_t p = 0; p < r.wait_on_ns.size() && p < blamed.size(); ++p) {
      if (static_cast<int>(p) != r.rank) {
        blamed[p] += static_cast<double>(r.wait_on_ns[p]);
      }
    }
  }
  const double peers = n > 1 ? n - 1 : 1;
  for (size_t p = 0; p < blamed.size(); ++p) {
    const double frac = mean > 0 ? blamed[p] / (peers * mean) : 0.0;
    states_[p].g_blame_frac->Set(frac);
    if (frac > rec.max_blame_frac) {
      rec.max_blame_frac = frac;
      rec.most_blamed = static_cast<int>(p);
    }
  }

  rec.critical_rank = critical->rank;
  rec.wall_ns = critical->wall_ns();
  rec.compute_ns = critical->compute_ns;
  rec.scatter_ns = critical->scatter_ns;
  rec.gather_ns = critical->gather_ns;
  rec.wait_ns = critical->wait_ns;
  rec.waiting_on = critical->waiting_on;
  rec.waiting_on_ns = critical->waiting_on_ns;
  rec.mean_wall_ns = mean;

  // Wall-divergence signal: flag ranks whose wall time is a statistical and
  // material outlier (catches ASP/SSP stragglers, where ranks run free).
  // Leave-one-out z-score: each rank is measured against the OTHER ranks'
  // mean/stddev — a whole-population z-score caps at sqrt(n-1) for a single
  // outlier, which a 2.0 threshold could never reach at small rank counts.
  // The stddev floor (5% of the peer mean) keeps a perfectly tight peer
  // group from producing infinite z; the min_ratio guard still requires the
  // outlier to be materially slow.
  int wall_flagged = -1;
  double flagged_wall = 0;
  for (const EpochReport& r : reports) {
    const double wall = static_cast<double>(r.wall_ns());
    double z = 0;
    if (reports.size() > 1) {
      const double mean_loo = (sum - wall) / (n - 1);
      double var_loo = 0;
      for (const EpochReport& q : reports) {
        if (q.rank != r.rank) {
          const double d = static_cast<double>(q.wall_ns()) - mean_loo;
          var_loo += d * d;
        }
      }
      const double stddev_loo = std::sqrt(var_loo / (n - 1));
      const double floor = std::max(0.05 * mean_loo, 1.0);
      z = (wall - mean_loo) / std::max(stddev_loo, floor);
    }
    RankState& st = states_[static_cast<size_t>(r.rank)];
    st.g_wall_z->Set(z);
    rec.max_z = std::max(rec.max_z, z);
    if (z > options_.z_threshold &&
        static_cast<double>(r.wall_ns()) >= options_.min_ratio * mean) {
      st.straggler_epochs += 1;
      st.g_straggler_epochs->Set(static_cast<double>(st.straggler_epochs));
      if (static_cast<double>(r.wall_ns()) > flagged_wall) {
        flagged_wall = static_cast<double>(r.wall_ns());
        wall_flagged = r.rank;
      }
    }
  }
  // Blame signal: under BSP the barrier hides the straggler's own wall time,
  // but its peers' attributed waits point straight at it.
  int blame_flagged = -1;
  if (rec.most_blamed >= 0 && rec.max_blame_frac > options_.blame_threshold) {
    blame_flagged = rec.most_blamed;
    if (blame_flagged != wall_flagged) {
      RankState& st = states_[static_cast<size_t>(blame_flagged)];
      st.straggler_epochs += 1;
      st.g_straggler_epochs->Set(static_cast<double>(st.straggler_epochs));
    }
  }
  // `straggler` in the record means "flagged", not merely "slowest".
  rec.straggler = wall_flagged >= 0 ? wall_flagged : blame_flagged;

  telemetry_->rank(0).metrics.GetGauge(HealthMetricName("epochs_profiled"))
      ->Set(static_cast<double>(epoch + 1));

  if (telemetry_->has_sink()) {
    std::string json;
    AppendCriticalPathJson(&json, rec);
    telemetry_->Emit("critical_path", json);
  }
  finalized_.push_back(rec);
}

void HealthMonitor::Finish(SimTime now) {
  MutexLock lock(mu_);
  // Flush trailing epochs even if some active rank never reported them
  // (runs cut short, or survivor groups with uneven epoch schedules).
  for (auto& [epoch, pending] : pending_) {
    FinalizeEpochLocked(epoch, pending, now);
  }
  pending_.clear();
}

std::vector<CriticalPathRecord> HealthMonitor::critical_paths() const {
  MutexLock lock(mu_);
  return finalized_;
}

int64_t HealthMonitor::straggler_epochs(int rank) const {
  MutexLock lock(mu_);
  return states_[static_cast<size_t>(rank)].straggler_epochs;
}

int64_t HealthMonitor::epochs_profiled() const {
  MutexLock lock(mu_);
  return static_cast<int64_t>(finalized_.size());
}

std::string HealthMonitor::WatermarksJson() const {
  MutexLock lock(mu_);
  std::string out;
  out.push_back('[');
  for (int r = 0; r < ranks_; ++r) {
    const RankState& st = states_[static_cast<size_t>(r)];
    if (r > 0) {
      out.push_back(',');
    }
    out.append("{\"rank\":");
    AppendJsonNumber(&out, static_cast<double>(r));
    out.append(",\"epoch\":");
    AppendJsonNumber(&out, static_cast<double>(st.last_epoch));
    out.append(",\"epoch_lag\":");
    AppendJsonNumber(&out, st.g_epoch_lag->value());
    out.append(",\"wait_frac\":");
    AppendJsonNumber(&out, st.g_wait_frac->value());
    out.append(",\"wall_z\":");
    AppendJsonNumber(&out, st.g_wall_z->value());
    out.append(",\"waiting_on\":");
    AppendJsonNumber(&out, st.g_waiting_on->value());
    out.append(",\"blame_frac\":");
    AppendJsonNumber(&out, st.g_blame_frac->value());
    out.append(",\"straggler_epochs\":");
    AppendJsonNumber(&out, static_cast<double>(st.straggler_epochs));
    out.append(",\"dead\":");
    AppendJsonNumber(&out, st.active ? 0 : 1);
    out.push_back('}');
  }
  out.push_back(']');
  return out;
}

}  // namespace malt
