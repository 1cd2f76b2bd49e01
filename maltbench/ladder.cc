// The traced run: rebuilds a workload's stack from its public pieces and
// times calls into each layer from benchmark code (nothing inside src/ is
// instrumented). Phases, each on a fresh stack at the workload's shape:
//
//   round         cb ml steps -> VOL scatter -> barrier (BSP) -> VOL gather,
//                 on the workload's transport, like the app's training loop
//                 (SVM whole-model rounds, rank 0's held-out evaluations)
//   dstorm        Dstorm::Scatter / Gather (no-op consumer) of the app's mean
//                 payload, same round structure; flow tracing on (the default)
//   dstorm_noflow the same with TelemetryOptions::flow_events off
//   barrier       back-to-back barriers (measured even where the workload runs
//                 ASP, so the row reads as a per-op cost, not usage)
//   shmem_raw     Transport::PostWrite of the mean wire bytes to each
//                 out-neighbor, then Transport::Read of the same bytes
//   simnet_raw    PostWrite into the simulated fabric
//   sim_handoff   Process::Advance baton passes among `ranks` processes
//
// Lower layers are timed on every workload at its shape; whether the
// workload uses them is decided by the plain run's counters (summarize.py).

#include "maltbench/ladder.h"

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "maltbench/spans.h"
#include "src/apps/svm_app.h"
#include "src/base/log.h"
#include "src/comm/graph.h"
#include "src/core/options.h"
#include "src/dstorm/dstorm.h"
#include "src/ml/metrics.h"
#include "src/ml/mf.h"
#include "src/ml/svm.h"
#include "src/shmem/rank_ctx.h"
#include "src/shmem/shmem_transport.h"
#include "src/sim/engine.h"
#include "src/simnet/fabric.h"
#include "src/vol/malt_vector.h"

namespace maltbench {

using malt::Dstorm;
using malt::TransportKind;

namespace {

malt::Graph GraphFor(const Workload& w, int ranks) {
  return w.graph == malt::GraphKind::kHalton ? malt::HaltonGraph(ranks)
                                             : malt::AllToAllGraph(ranks);
}

struct Shard {
  size_t begin = 0;
  size_t end = 0;
};

Shard ShardOf(size_t total, int ranks, int rank) {
  const size_t base = total / static_cast<size_t>(ranks);
  const size_t extra = total % static_cast<size_t>(ranks);
  const auto r = static_cast<size_t>(rank);
  const size_t begin = r * base + std::min(r, extra);
  return Shard{begin, begin + base + (r < extra ? 1 : 0)};
}

// One rank's SGD over its shard, cb examples per batch: the apps' inner
// loop, on a model the caller owns.
class Trainer {
 public:
  Trainer(const Workload& w, const Inputs& in, int ranks, int rank, std::span<float> model,
          uint64_t seed)
      : w_(w), in_(in), model_(model) {
    const size_t total = w.app == App::kSvm ? in.svm.train.size() : in.mf.train.size();
    shard_ = ShardOf(total, ranks, rank);
    next_ = shard_.begin;
    if (w.app == App::kSvm) {
      svm_ = std::make_unique<malt::SvmSgd>(model, malt::SvmOptions{});
    } else {
      mf_ = std::make_unique<malt::MfSgd>(model, in.mf.users, in.mf.items, malt::MfOptions{});
      mf_->InitFactors(seed);
      row_touched_.assign(static_cast<size_t>(in.mf.users + in.mf.items), 0);
    }
  }

  static size_t ModelSize(const Workload& w, const Inputs& in) {
    return w.app == App::kSvm
               ? in.svm.dim
               : malt::MfSgd::FactorCount(in.mf.users, in.mf.items, malt::MfOptions{}.rank);
  }

  // Trains the next cb examples (wrapping within the shard); returns their
  // modeled flops.
  double Batch() {
    double flops = 0;
    for (int k = 0; k < w_.cb; ++k) {
      if (svm_) {
        svm_->TrainExample(in_.svm.train[next_]);
        flops += svm_->last_step_flops();
      } else {
        const malt::Rating& r = in_.mf.train[next_];
        mf_->TrainRating(r);
        flops += mf_->last_step_flops();
        for (const uint32_t row : {r.user, static_cast<uint32_t>(in_.mf.users) + r.item}) {
          if (!row_touched_[row]) {
            row_touched_[row] = 1;
            touched_rows_.push_back(row);
          }
        }
      }
      next_ = next_ + 1 == shard_.end ? shard_.begin : next_ + 1;
    }
    return flops;
  }

  // The apps' periodic held-out score (SvmAppConfig/MfAppConfig
  // evals_per_epoch = 4): hinge loss for SVM, RMSE for MF.
  double Evaluate() const {
    return svm_ ? malt::MeanHingeLoss(model_, in_.svm.test) : mf_->TestRmse(in_.mf.test);
  }
  // Rounds between two evaluations on rank 0.
  int EvalEvery() const {
    const size_t rounds_per_epoch =
        (shard_.end - shard_.begin + static_cast<size_t>(w_.cb) - 1) / static_cast<size_t>(w_.cb);
    return std::max(1, static_cast<int>(rounds_per_epoch / 4));
  }

  // MF: the factor coordinates of the rows touched since the last call.
  void TakeTouched(std::vector<uint32_t>& indices) {
    const auto rank_dim = static_cast<uint32_t>(malt::MfOptions{}.rank);
    indices.clear();
    for (const uint32_t row : touched_rows_) {
      for (uint32_t f = 0; f < rank_dim; ++f) {
        indices.push_back(row * rank_dim + f);
      }
      row_touched_[row] = 0;
    }
    touched_rows_.clear();
  }

 private:
  const Workload& w_;
  const Inputs& in_;
  std::span<float> model_;
  Shard shard_;
  size_t next_ = 0;
  std::unique_ptr<malt::SvmSgd> svm_;
  std::unique_ptr<malt::MfSgd> mf_;
  std::vector<uint8_t> row_touched_;
  std::vector<uint32_t> touched_rows_;
};

using RankBody = std::function<void(Dstorm&, int rank)>;

// Runs `body` once per rank on a fresh transport + dstorm stack: real
// threads under shmem, engine processes under sim.
void RunOnStack(TransportKind kind, int ranks, bool flow_events, const RankBody& body) {
  malt::TelemetryOptions topt;
  topt.flow_events = flow_events;
  malt::TelemetryDomain tel(ranks, topt);
  if (kind == TransportKind::kShmem) {
    malt::ShmemTransport t(ranks, malt::ShmemOptions{}, &tel);
    malt::DstormDomain domain(t, ranks, &tel);
    std::vector<std::unique_ptr<malt::ShmemRankCtx>> ctxs;
    for (int rank = 0; rank < ranks; ++rank) {
      ctxs.push_back(std::make_unique<malt::ShmemRankCtx>(rank, t.clock()));
    }
    std::vector<std::thread> threads;
    for (int rank = 0; rank < ranks; ++rank) {
      threads.emplace_back([&, rank] {
        Dstorm& d = domain.node(rank);
        d.BindCtx(*ctxs[static_cast<size_t>(rank)]);
        body(d, rank);
        d.FinishBarriers();
      });
    }
    for (std::thread& th : threads) {
      th.join();
    }
    return;
  }
  malt::Engine engine;
  malt::Fabric fabric(engine, ranks, malt::FabricOptions{}, &tel);
  malt::DstormDomain domain(fabric, ranks, &tel);
  for (int rank = 0; rank < ranks; ++rank) {
    engine.AddProcess("r" + std::to_string(rank), [&, rank](malt::Process& p) {
      Dstorm& d = domain.node(rank);
      d.Bind(p);
      body(d, rank);
      d.FinishBarriers();
    });
  }
  engine.Run();
}

class Ladder {
 public:
  explicit Ladder(const LadderConfig& config)
      : c_(config),
        w_(*config.workload),
        graph_(GraphFor(w_, config.ranks)),
        in_(MakeInputs(w_, config.seed)) {
    if (w_.app == App::kMf) {
      malt::SortRatingsByItem(in_.mf);  // as RunDistributedMf does
    }
  }

  // Runs every phase, keeping the spans in memory, then appends them all.
  void Run() {
    const bool sim = w_.transport == TransportKind::kSim;
    const int base_rounds = w_.app == App::kSvm ? 200 : (sim ? 1500 : 2000);
    rounds_ = std::max(20, static_cast<int>(base_rounds * c_.scale));
    RoundPhase();
    DstormPhase("dstorm", true);
    DstormPhase("dstorm_noflow", false);
    BarrierPhase();
    ShmemRawPhase();
    SimnetRawPhase();
    HandoffPhase();

    std::FILE* out = std::fopen(c_.out_path.c_str(), "a");
    MALT_CHECK(out != nullptr) << "cannot append to " << c_.out_path;
    std::fprintf(out,
                 "{\"type\":\"ladder\",\"workload\":\"%s\",\"seed\":%llu,\"ranks\":%d,"
                 "\"rounds\":%d,\"write_bytes\":%.17g,\"payload_bytes\":%.17g,\"cb\":%d}\n",
                 w_.name.c_str(), static_cast<unsigned long long>(c_.seed), c_.ranks, rounds_,
                 c_.write_bytes, PayloadBytes(), w_.cb);
    for (const auto& [phase, logs] : phases_) {
      for (const SpanLog& log : logs) {
        log.Write(out, phase);
      }
    }
    MALT_CHECK(std::fclose(out) == 0) << "cannot write " << c_.out_path;
  }

 private:
  // dstorm slot header (seq, iter, bytes) and trailer (seq) around a payload.
  static constexpr double kSlotOverhead = 24;

  double PayloadBytes() const { return std::max(8.0, c_.write_bytes - kSlotOverhead); }

  void KeepPhase(const char* phase, std::vector<SpanLog>&& logs) {
    phases_.emplace_back(phase, std::move(logs));
  }

  std::vector<SpanLog> Logs() const {
    std::vector<SpanLog> logs;
    for (int rank = 0; rank < c_.ranks; ++rank) {
      logs.emplace_back(rank);
    }
    return logs;
  }

  void RoundPhase() {
    std::vector<SpanLog> logs = Logs();
    RunOnStack(w_.transport, c_.ranks, true, [&](Dstorm& d, int rank) {
      SpanLog& log = logs[static_cast<size_t>(rank)];
      if (w_.app == App::kSvm) {
        SvmRounds(d, rank, log);
      } else {
        MfRounds(d, rank, log);
      }
    });
    KeepPhase("round", std::move(logs));
  }

  // The app's gradient-averaging round with the sum fold (SvmAppConfig
  // defaults): scatter this batch's delta, fold peers' deltas on top.
  void SvmRounds(Dstorm& d, int rank, SpanLog& log) {
    const malt::SparseDataset& data = in_.svm;
    malt::MaltVectorOptions vo;
    vo.name = "svm_g";
    vo.dim = data.dim;
    vo.queue_depth = w_.queue_depth;
    vo.graph = graph_;
    malt::MaltVector shared(d, std::move(vo));
    std::vector<float> local_w(data.dim, 0.0f);
    std::vector<float> snapshot(data.dim, 0.0f);
    Trainer trainer(w_, in_, c_.ranks, rank, local_w, c_.seed);
    for (int round = 1; round <= rounds_; ++round) {
      const int64_t round_id = log.Reserve();
      const int64_t t_round = NowNs();
      int64_t t0 = NowNs();
      const double flops = trainer.Batch();
      log.Add("ml.batch", t0, NowNs(), round_id, w_.cb);
      ChargeFlops(d, flops);
      // Every model_sync_every-th BSP round ships and averages whole models.
      const bool model_round = w_.sync == malt::SyncMode::kBSP && w_.model_sync_every > 0 &&
                               round % w_.model_sync_every == 0;
      t0 = NowNs();
      std::span<float> g = shared.data();
      for (size_t j = 0; j < g.size(); ++j) {
        g[j] = model_round ? local_w[j] : local_w[j] - snapshot[j];
      }
      log.Add("apps.delta", t0, NowNs(), round_id);
      ChargeFlops(d, static_cast<double>(data.dim));
      shared.set_iteration(static_cast<uint32_t>(round));
      ScatterAndSync(d, log, round_id, [&] { return shared.Scatter(); });
      t0 = NowNs();
      const malt::GatherResult r = model_round ? shared.GatherAverage() : shared.GatherSum();
      log.Add("vol.gather", t0, NowNs(), round_id, r.values_folded);
      ChargeFlops(d, 2.0 * static_cast<double>(r.values_folded + data.dim));
      t0 = NowNs();
      for (size_t j = 0; j < g.size(); ++j) {
        local_w[j] = model_round ? g[j] : snapshot[j] + g[j];
        snapshot[j] = local_w[j];
      }
      log.Add("apps.delta", t0, NowNs(), round_id);
      ChargeFlops(d, 2.0 * static_cast<double>(data.dim));
      MaybeEvaluate(trainer, rank, round, round_id, log);
      log.AddWithId("round", round_id, t_round, NowNs(), 0, w_.cb);
    }
  }

  // RunDistributedMf's round: scatter the touched factor rows, fold peers'
  // rows with the replace UDF.
  void MfRounds(Dstorm& d, int rank, SpanLog& log) {
    const size_t factor_count = Trainer::ModelSize(w_, in_);
    const auto rank_dim = static_cast<size_t>(malt::MfOptions{}.rank);
    malt::MaltVectorOptions vo;
    vo.name = "mf_pq";
    vo.dim = factor_count;
    vo.layout = malt::Layout::kSparse;
    vo.max_nnz = std::min(factor_count, (2 * static_cast<size_t>(w_.cb) + 16) * rank_dim);
    vo.queue_depth = w_.queue_depth;
    vo.graph = graph_;
    malt::MaltVector factors(d, std::move(vo));
    Trainer trainer(w_, in_, c_.ranks, rank, factors.data(), c_.seed);
    std::vector<uint32_t> indices;
    for (int round = 1; round <= rounds_; ++round) {
      const int64_t round_id = log.Reserve();
      const int64_t t_round = NowNs();
      int64_t t0 = NowNs();
      const double flops = trainer.Batch();
      log.Add("ml.batch", t0, NowNs(), round_id, w_.cb);
      ChargeFlops(d, flops);
      t0 = NowNs();
      trainer.TakeTouched(indices);
      log.Add("apps.delta", t0, NowNs(), round_id);
      factors.set_iteration(static_cast<uint32_t>(round));
      ScatterAndSync(d, log, round_id, [&] { return factors.ScatterIndices(indices); });
      t0 = NowNs();
      const malt::GatherResult r = factors.GatherReplace();
      log.Add("vol.gather", t0, NowNs(), round_id, r.values_folded);
      ChargeFlops(d, static_cast<double>(r.received) * static_cast<double>(indices.size()));
      MaybeEvaluate(trainer, rank, round, round_id, log);
      log.AddWithId("round", round_id, t_round, NowNs(), 0, w_.cb);
    }
  }

  // Modeled compute, charged where the apps charge it: it advances virtual
  // time under sim (a baton handoff) and is a cancellation point on shmem.
  void ChargeFlops(Dstorm& d, double flops) { d.ctx().Advance(cost_.ForFlops(flops)); }

  // Scatter, then (BSP) flush and barrier. Flush and barrier block until
  // other ranks act, so under sim their spans hold other ranks' work.
  template <typename ScatterFn>
  void ScatterAndSync(Dstorm& d, SpanLog& log, int64_t round_id, const ScatterFn& scatter) {
    int64_t t0 = NowNs();
    const malt::Status status = scatter();
    MALT_CHECK(status.ok()) << status.ToString();
    log.Add("vol.scatter", t0, NowNs(), round_id);
    const auto fanout = static_cast<double>(graph_.OutEdges(d.rank()).size());
    d.ctx().Advance(malt::FromSeconds(2e-7 * fanout));  // the apps' cost of posting writes
    if (w_.sync == malt::SyncMode::kBSP) {
      t0 = NowNs();
      MALT_CHECK(d.Flush().ok());
      log.Add("dstorm.flush", t0, NowNs(), round_id);
      t0 = NowNs();
      MALT_CHECK(d.Barrier().ok());
      log.Add("core.barrier", t0, NowNs(), round_id);
    }
  }

  // Rank 0 scores the held-out set as often as the apps do.
  void MaybeEvaluate(const Trainer& trainer, int rank, int round, int64_t round_id,
                     SpanLog& log) {
    if (rank != 0 || round % trainer.EvalEvery() != 0) {
      return;
    }
    const int64_t t0 = NowNs();
    eval_sink_ += trainer.Evaluate();
    log.Add("ml.eval", t0, NowNs(), round_id);
  }

  void DstormPhase(const char* phase, bool flow_events) {
    std::vector<SpanLog> logs = Logs();
    const auto payload_bytes = static_cast<size_t>(PayloadBytes());
    RunOnStack(w_.transport, c_.ranks, flow_events, [&](Dstorm& d, int rank) {
      SpanLog& log = logs[static_cast<size_t>(rank)];
      malt::SegmentOptions opts;
      opts.obj_bytes = payload_bytes;
      opts.graph = graph_;
      opts.queue_depth = w_.queue_depth;
      const malt::SegmentId seg = d.CreateSegment(opts);
      std::vector<std::byte> payload(payload_bytes, std::byte{0x5a});
      // An untimed ml batch before each round paces the rounds as the app's
      // are paced, so gathers find the slots in the state the VOL gather
      // of the round phase finds them (the fold is the difference).
      std::vector<float> model(Trainer::ModelSize(w_, in_), 0.0f);
      Trainer trainer(w_, in_, c_.ranks, rank, model, c_.seed);
      for (int round = 1; round <= rounds_; ++round) {
        trainer.Batch();
        int64_t t0 = NowNs();
        MALT_CHECK(d.Scatter(seg, payload, static_cast<uint32_t>(round)).ok());
        log.Add("dstorm.scatter", t0, NowNs(), 0,
                static_cast<int64_t>(graph_.OutEdges(rank).size()));
        if (w_.sync == malt::SyncMode::kBSP) {
          MALT_CHECK(d.Flush().ok());
          MALT_CHECK(d.Barrier().ok());
        }
        t0 = NowNs();
        const int got = d.Gather(seg, [](const malt::RecvObject&) {});
        log.Add("dstorm.gather", t0, NowNs(), 0, got);
      }
    });
    KeepPhase(phase, std::move(logs));
  }

  void BarrierPhase() {
    std::vector<SpanLog> logs = Logs();
    RunOnStack(w_.transport, c_.ranks, true, [&](Dstorm& d, int rank) {
      SpanLog& log = logs[static_cast<size_t>(rank)];
      for (int k = 0; k < std::max(50, rounds_ / 4); ++k) {
        const int64_t t0 = NowNs();
        MALT_CHECK(d.Barrier().ok());
        log.Add("core.barrier", t0, NowNs());
      }
    });
    KeepPhase("barrier", std::move(logs));
  }

  // Each rank streams the dstorm write pattern straight into the
  // transport: the mean wire bytes to every out-neighbor's slot, cycling
  // over queue_depth slots, then reads its own slots back.
  void ShmemRawPhase() {
    const auto bytes = static_cast<size_t>(c_.write_bytes);
    const int ranks = c_.ranks;
    malt::ShmemTransport t(ranks);
    std::vector<malt::MrHandle> mr;
    const size_t slots = static_cast<size_t>(ranks) * static_cast<size_t>(w_.queue_depth);
    for (int node = 0; node < ranks; ++node) {
      mr.push_back(t.RegisterMemory(node, slots * bytes, bytes));
    }
    std::vector<SpanLog> logs = Logs();
    std::barrier sync(ranks);
    std::vector<std::thread> threads;
    for (int rank = 0; rank < ranks; ++rank) {
      threads.emplace_back([&, rank] {
        SpanLog& log = logs[static_cast<size_t>(rank)];
        const std::vector<std::byte> payload(bytes, std::byte{0xa5});
        std::vector<std::byte> readback(bytes);
        malt::Completion cq[64];
        sync.arrive_and_wait();
        const int64_t loop_start = NowNs();
        int64_t writes = 0;
        for (int round = 0; round < rounds_; ++round) {
          for (const int dst : graph_.OutEdges(rank)) {
            const size_t slot = static_cast<size_t>(rank) * static_cast<size_t>(w_.queue_depth) +
                                static_cast<size_t>(round % w_.queue_depth);
            const int64_t t0 = NowNs();
            MALT_CHECK(t.PostWrite(rank, t.now(), mr[static_cast<size_t>(dst)], slot * bytes,
                                   payload)
                           .ok());
            log.Add("shmem.post_write", t0, NowNs());
            ++writes;
          }
          t.PollCq(rank, cq);
        }
        log.Add("shmem.write_loop", loop_start, NowNs(), 0,
                writes * static_cast<int64_t>(bytes));
        sync.arrive_and_wait();
        for (int round = 0; round < rounds_; ++round) {
          const size_t slot = static_cast<size_t>(round) % slots;
          const int64_t t0 = NowNs();
          const bool ok = t.Read(mr[static_cast<size_t>(rank)], slot * bytes, readback);
          log.Add("shmem.read", t0, NowNs(), 0, ok ? 1 : 0);
        }
      });
    }
    for (std::thread& th : threads) {
      th.join();
    }
    KeepPhase("shmem_raw", std::move(logs));
  }

  void SimnetRawPhase() {
    const auto bytes = static_cast<size_t>(c_.write_bytes);
    const int ranks = c_.ranks;
    malt::Engine engine;
    malt::Fabric fabric(engine, ranks, malt::FabricOptions{});
    std::vector<malt::MrHandle> mr;
    const size_t slots = static_cast<size_t>(ranks) * static_cast<size_t>(w_.queue_depth);
    for (int node = 0; node < ranks; ++node) {
      mr.push_back(fabric.RegisterMemory(node, slots * bytes));
    }
    std::vector<SpanLog> logs = Logs();
    const std::vector<std::byte> payload(bytes, std::byte{0xa5});
    for (int rank = 0; rank < ranks; ++rank) {
      engine.AddProcess("r" + std::to_string(rank), [&, rank](malt::Process& p) {
        SpanLog& log = logs[static_cast<size_t>(rank)];
        malt::Completion cq[64];
        const int64_t loop_start = NowNs();
        int64_t writes = 0;
        for (int round = 0; round < rounds_; ++round) {
          for (const int dst : graph_.OutEdges(rank)) {
            p.WaitUntil([&] { return fabric.HasSendRoom(rank); });
            const size_t slot = static_cast<size_t>(rank) * static_cast<size_t>(w_.queue_depth) +
                                static_cast<size_t>(round % w_.queue_depth);
            const int64_t t0 = NowNs();
            MALT_CHECK(fabric.PostWrite(rank, p.now(), mr[static_cast<size_t>(dst)],
                                        slot * bytes, payload)
                           .ok());
            log.Add("simnet.post_write", t0, NowNs());
            ++writes;
          }
          p.WaitUntil([&] { return fabric.OutstandingWrites(rank) == 0; });
          fabric.PollCq(rank, cq);
        }
        log.Add("simnet.write_loop", loop_start, NowNs(), 0,
                writes * static_cast<int64_t>(bytes));
      });
    }
    engine.Run();
    KeepPhase("simnet_raw", std::move(logs));
  }

  // Each Advance hands the baton through every other process and back, so
  // one span covers `ranks` handoffs.
  void HandoffPhase() {
    malt::Engine engine;
    std::vector<SpanLog> logs = Logs();
    const int advances = std::max(200, rounds_);
    for (int rank = 0; rank < c_.ranks; ++rank) {
      engine.AddProcess("r" + std::to_string(rank), [&, rank](malt::Process& p) {
        SpanLog& log = logs[static_cast<size_t>(rank)];
        for (int k = 0; k < advances; ++k) {
          const int64_t t0 = NowNs();
          p.Advance(10);
          log.Add("sim.advance", t0, NowNs(), 0, c_.ranks);
        }
      });
    }
    engine.Run();
    KeepPhase("sim_handoff", std::move(logs));
  }

  const LadderConfig& c_;
  const Workload& w_;
  const malt::CostModel cost_;
  const malt::Graph graph_;
  Inputs in_;
  std::vector<std::pair<const char*, std::vector<SpanLog>>> phases_;
  int rounds_ = 0;
  double eval_sink_ = 0;  // keeps the timed evaluations observable
};

}  // namespace

void RunLadder(const LadderConfig& config) {
  Ladder ladder(config);
  ladder.Run();
}

}  // namespace maltbench
