// dstorm — DiSTributed One-sided Remote Memory (paper §3.1).
//
// Every node creates shared-memory "segments" collectively. A segment on node
// R reserves a receive queue of `queue_depth` slots for every potential
// sender S; sender S round-robins its writes over its own slots, so
// write-write conflicts are impossible by construction and a scatter never
// involves the receiver's CPU (lockless model propagation).
//
// Slot wire format (offsets computable by the sender with no remote reads):
//   u64 seq_front | u32 iter | u32 bytes | payload[obj_bytes] | u64 seq_back
// A slot is consistent when seq_front == seq_back and nonzero; a torn write
// (in-flight overwrite) shows mismatched stamps and is skipped by Gather —
// this is the paper's "atomic gather" without any reader/writer locking.
//
// Overwrite-on-full: a sender that laps the reader simply overwrites its
// oldest slot; Gather folds only not-yet-consumed consistent slots, newest
// last, per sender.
//
// dstorm is transport-agnostic: it programs against Transport/RankCtx
// (src/comm/transport.h) and runs unchanged over the discrete-event simulator
// (Fabric + Process) or real concurrent threads (ShmemTransport +
// ShmemRankCtx). All receive-side polling goes through Transport::Read, which
// reports concurrent overwrites as torn — on the simulator it degenerates to
// a plain copy.

#ifndef SRC_DSTORM_DSTORM_H_
#define SRC_DSTORM_DSTORM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/status.h"
#include "src/base/thread_annotations.h"
#include "src/base/time_units.h"
#include "src/comm/graph.h"
#include "src/comm/transport.h"
#include "src/sim/engine.h"

namespace malt {

using SegmentId = int;

struct SegmentOptions {
  size_t obj_bytes = 0;  // payload capacity per object
  Graph graph;           // dataflow: who pushes to whom
  int queue_depth = 2;   // receive-queue slots per sender, 1..kMaxQueueDepth
};

inline constexpr int kMaxQueueDepth = 16;

// One object received by Gather.
struct RecvObject {
  int sender = -1;
  uint32_t iter = 0;  // sender's iteration stamp
  // Points into the segment's snapshot arena: valid until the next Gather on
  // the same segment (callers may defer folding past the callback).
  std::span<const std::byte> bytes;
};

// RankCtx over a simulator Process: virtual time, cooperative scheduling.
class SimProcessCtx : public RankCtx {
 public:
  explicit SimProcessCtx(Process& proc) : proc_(proc) {}

  SimTime Now() const override { return proc_.now(); }
  void Advance(SimDuration dt) override { proc_.Advance(dt); }
  void Yield() override { proc_.Yield(); }
  void Wait(const std::function<bool()>& pred) override { proc_.WaitUntil(pred); }
  bool WaitOr(const std::function<bool()>& pred, SimTime deadline) override {
    return proc_.WaitUntilOr(pred, deadline);
  }
  [[noreturn]] void KillSelf() override {
    proc_.engine().ScheduleKill(proc_.pid(), proc_.now());
    proc_.Yield();  // the engine delivers the kill here (throws ProcessKilled)
    throw ProcessKilled{proc_.pid()};  // unreachable; satisfies [[noreturn]]
  }

 private:
  Process& proc_;
};

class DstormDomain;

// Per-node endpoint. All calls must come from the bound rank's
// process/thread.
class Dstorm {
 public:
  int rank() const { return rank_; }
  int world() const { return world_; }

  // Binds this endpoint to its simulator process; required before use on the
  // sim transport. (Wraps the process in a SimProcessCtx.)
  void Bind(Process& proc);
  // Binds to an externally-owned execution context (the shmem runtime's
  // per-thread ShmemRankCtx).
  void BindCtx(RankCtx& ctx);

  bool bound() const { return ctx_ != nullptr; }
  RankCtx& ctx() const { return *ctx_; }
  // The simulator process, when bound via Bind() (sim-only callers:
  // parameter-server baseline, engine-level tests).
  Process& process() const;

  // This rank's telemetry bundle (metric registry + trace ring). Higher
  // layers (VOL, fault monitor) instrument through this.
  RankTelemetry& telemetry() const { return *telemetry_; }

  // The transport this endpoint posts through (higher layers reach the
  // shared protocol checker via transport().checker()).
  Transport& transport() const { return *transport_; }

  // Collective: every live node must call with identical options; segments
  // are numbered by call order. The first caller registers the receive
  // memory on every node, so a peer may scatter into this node's queues
  // before this node has made the call; each node's own call then builds
  // its segment state. A node uses a segment only after creating it.
  // Mismatched options, or a kind (queue vs accumulator) that differs from
  // the first caller's, are fatal checks.
  SegmentId CreateSegment(const SegmentOptions& options);

  // Pushes `payload` (<= obj_bytes) with iteration stamp `iter` to every
  // live out-neighbor in the segment's dataflow graph. One one-sided write
  // per receiver. Applies back-pressure when the NIC send queue is full.
  // Dead peers discovered through error completions are recorded (see
  // TakeFailedPeers) and skipped on subsequent scatters.
  [[nodiscard]] Status Scatter(SegmentId seg, std::span<const std::byte> payload, uint32_t iter);

  // As Scatter, but to an explicit subset of the out-neighbors — the paper's
  // fine-grained per-call dataflow control (§3.2).
  [[nodiscard]] Status ScatterTo(SegmentId seg, std::span<const int> dsts, std::span<const std::byte> payload,
                   uint32_t iter);

  // Applies `consume` to every fresh consistent object in this node's
  // receive queues (local operation; no network). Objects from a given
  // sender are presented oldest-first. Returns the number consumed.
  int Gather(SegmentId seg, const std::function<void(const RecvObject&)>& consume);

  // Largest iteration stamp visible from `sender` in this segment (consumed
  // or not); -1 if nothing received yet. Drives bounded-staleness decisions.
  int64_t PeerIteration(SegmentId seg, int sender) const;

  // True when at least one not-yet-consumed consistent object is waiting in
  // this node's receive queues (cheap poll used in wait predicates).
  bool FreshAvailable(SegmentId seg) const;

  // Updates lost to overwrite-on-full so far: a receiver detects them as
  // gaps in the per-sender sequence numbers it consumes. The paper accepts
  // this loss (stochastic training tolerates dropped updates); the counter
  // quantifies the freshness/queue-depth trade-off.
  int64_t LostUpdates(SegmentId seg) const;

  // Blocks until all of this node's outstanding writes have completed,
  // harvesting error completions.
  [[nodiscard]] Status Flush();

  // Distributed barrier among current group members. Returns
  // kDeadlineExceeded if a member failed to arrive within `timeout`
  // (0 = wait forever); the caller is expected to run a health check and
  // retry with BarrierResume. A node whose group shrinks mid-wait completes
  // with the survivors.
  Status Barrier(SimDuration timeout = 0);

  // Re-arms the *same* barrier round after a recovery (the round must not
  // advance, or survivors that already passed would be waited on forever).
  Status BarrierResume(SimDuration timeout = 0);

  // Marks this node as finished with all collective synchronization: its
  // barrier counter is published as "infinity" so peers still in (or about to
  // enter) a barrier never wait for it. Called automatically by the runtime
  // when a worker body returns; needed because failures can leave survivors
  // with different per-epoch round counts after re-sharding.
  void FinishBarriers();

  // --- hardware aggregation (paper conclusion: fetch_and_add in the NIC) ----

  // Creates an accumulator segment: one float array per node into which
  // peers' contributions are *added by the NIC itself* (PostFloatAdd), so
  // folding costs the receiver no CPU at all. Collective, like
  // CreateSegment, and numbered in the same sequence. Returns a segment id
  // usable only with ScatterAdd / DrainAccumulator.
  SegmentId CreateAccumulator(size_t dim, const Graph& graph);

  // Adds `values` (exactly `dim` floats) into every live out-neighbor's
  // accumulator, one one-sided accumulating write per receiver.
  [[nodiscard]] Status ScatterAdd(SegmentId seg, std::span<const float> values);

  // Copies this node's accumulated sum into `out` (dim floats), zeroes the
  // accumulator, and returns the number of contributions folded since the
  // last drain. Atomic with respect to in-flight adds.
  int64_t DrainAccumulator(SegmentId seg, std::span<float> out);

  // --- fault integration ----------------------------------------------------

  // Actively probes `peer` with a tiny one-sided write and waits for its
  // completion. Returns false if the write errors (peer dead/unreachable).
  bool ProbePeer(int peer);

  // Peers whose writes error'd since the last call (suspected dead).
  std::vector<int> TakeFailedPeers();

  // Removes `failed` from the communication group: scatters, gathers and
  // barriers skip it from now on. Idempotent.
  void RemoveFromGroup(int failed);

  bool InGroup(int node) const { return group_member_[static_cast<size_t>(node)]; }
  std::vector<int> GroupMembers() const;
  // The group member this node last observed not-yet-arrived while waiting
  // inside Barrier/BarrierResume (-1: the barrier never made it wait). The
  // runtime's health layer charges barrier wait time to this peer.
  int last_barrier_blocker() const { return last_barrier_blocker_; }
  int64_t group_epoch() const { return group_epoch_; }

 private:
  friend class DstormDomain;

  // Receive-queue layout: a node's region holds one queue per *in-neighbor*
  // (not per world rank), in InEdges order. A sender computes its queue base
  // on each receiver from its position in that receiver's in-edge list —
  // deterministic from the shared dataflow graph, so no remote metadata
  // reads are ever needed.
  //
  // Each node builds its own Segment in CreateSegment and only its own
  // thread ever touches it.
  struct Segment {
    SegmentOptions options;
    bool accumulator = false;               // NIC-aggregated segment (no queues)
    MrHandle recv_mr;                       // this node's receive queues
    size_t slot_stride = 0;                 // header + payload + trailer, aligned
    std::vector<int> sender_pos_at;         // per receiver: my in-edge position (-1: none)
    std::vector<uint64_t> next_send_seq;    // per receiver: my next stamp
    std::vector<int> next_send_slot;        // per receiver: my next slot index
    std::vector<uint64_t> last_consumed;    // per sender: newest consumed stamp
    int64_t lost_updates = 0;               // sequence gaps seen while consuming
    // Gather's torn-read-safe slot snapshots, one (payload + back stamp) cell
    // per (in-edge, slot). RecvObject spans point here, so the storage must
    // outlive the callback (consumers defer folding); see RecvObject::bytes.
    std::vector<std::byte> gather_arena;
  };

  // A slot header as ReadSlot decoded it.
  struct SlotHeader {
    uint64_t seq = 0;       // front stamp
    uint64_t seq_back = 0;  // back stamp (kTorn, kFresh)
    uint32_t iter = 0;
    uint32_t bytes = 0;
  };

  // What ReadSlot found in one receive slot.
  enum class SlotState : uint8_t {
    kEmpty,  // never written, or the header claims more than obj_bytes
    kBusy,   // a guard flagged the read: a write was in flight (shmem only)
    kStale,  // stamp <= the consumed mark; nothing past the header was read
    kTorn,   // front and back stamps differ: a write was in flight
    kFresh,  // consistent and newer than the consumed mark
  };

  Dstorm(DstormDomain* domain, Transport* transport, int rank, int world,
         RankTelemetry* telemetry);

  [[nodiscard]] Status PostObject(Segment& s, SegmentId seg, int dst,
                                  std::span<const std::byte> payload, uint32_t iter);
  void DrainCompletions();
  size_t SlotOffset(const Segment& s, int sender_pos, int slot) const;
  // The one slot reader: reads `slot` of in-edge queue `pos`, header first.
  // An empty header, or one whose stamp is <= `consumed`, ends the read
  // there. Otherwise the back stamp is read too: with `snap` set, together
  // with the payload copied into it (Gather); without, alone (polls).
  SlotState ReadSlot(const Segment& s, int pos, int slot, uint64_t consumed, std::byte* snap,
                     SlotHeader* header) const;
  // Blocks until the NIC send queue has room, charging the stall and its
  // duration to the fabric.send_queue_stall* counters.
  void WaitForSendRoom();
  // Bounds-checked index into this node's own segments; no lock.
  Segment& GetSegment(SegmentId seg);
  const Segment& GetSegment(SegmentId seg) const;

  DstormDomain* domain_;
  Transport* transport_;
  RankCtx* ctx_ = nullptr;
  Process* proc_ = nullptr;                 // set only by Bind()
  std::unique_ptr<SimProcessCtx> owned_ctx_;
  int rank_;
  int world_;

  // Cached telemetry cells (registered once in the constructor).
  RankTelemetry* telemetry_ = nullptr;
  // TelemetryOptions::flow_events, cached: when set, every PostObject tags
  // its write with a WireTrace and emits the 's' flow event, Gather emits
  // 'f' at consume, and the transports emit 't' at apply.
  bool flow_events_ = true;
  Counter* c_scatters_ = nullptr;
  Counter* c_objects_sent_ = nullptr;
  Counter* c_gathers_ = nullptr;
  Counter* c_objects_folded_ = nullptr;
  Counter* c_torn_skipped_ = nullptr;
  Counter* c_overwrites_ = nullptr;
  // Copy amplification: payload bytes Gather copied into the snapshot arena
  // (back stamps and headers not counted) vs payload bytes it handed to
  // consume().
  Counter* c_gather_bytes_copied_ = nullptr;
  Counter* c_gather_bytes_consumed_ = nullptr;
  Counter* c_barriers_ = nullptr;
  Counter* c_barrier_timeouts_ = nullptr;
  Counter* c_error_completions_ = nullptr;
  Counter* c_flushes_ = nullptr;
  Counter* c_flush_ns_ = nullptr;
  Counter* c_probes_ = nullptr;
  Counter* c_send_stalls_ = nullptr;
  Counter* c_send_stall_ns_ = nullptr;

  std::vector<Segment> segments_;  // this node's own, by SegmentId
  std::vector<bool> group_member_;
  int64_t group_epoch_ = 0;
  std::vector<bool> peer_failed_;       // error completion seen, not yet taken
  std::vector<int> failed_unreported_;  // FIFO for TakeFailedPeers

  // Barrier state.
  MrHandle barrier_mr_;
  uint64_t barrier_round_ = 0;
  // The last group member observed not-yet-arrived while this node waited in
  // its most recent Barrier/BarrierResume; -1 if the barrier completed on
  // the first check. Read by the health layer to attribute barrier wait time
  // to the straggling peer. Owner-thread state, like barrier_round_.
  int last_barrier_blocker_ = -1;

  // Health-probe scratch region (rkey 1 on every node).
  MrHandle probe_mr_;
  uint64_t probe_count_ = 0;
};

// Owns the per-node endpoints and the collective segment-creation registry.
class DstormDomain {
 public:
  // Endpoints record telemetry into `telemetry` (one registry per rank);
  // null falls back to the transport's domain, so standalone stacks share
  // one.
  explicit DstormDomain(Transport& transport, int nodes, TelemetryDomain* telemetry = nullptr);

  Dstorm& node(int rank) { return *nodes_[static_cast<size_t>(rank)]; }
  int size() const { return static_cast<int>(nodes_.size()); }

 private:
  friend class Dstorm;

  // Registry entry for collective creation: the first caller defines the
  // spec; later callers must match it.
  struct SegmentSpec {
    bool accumulator = false;
    size_t obj_bytes = 0;
    int queue_depth = 0;     // 0 for an accumulator
    size_t slot_stride = 0;  // 0 for an accumulator
  };

  // The collective half of creating segment `seg_id` on behalf of `rank`.
  // The first caller registers the receive region on every node, and the
  // checker layout for a queue segment, because a peer may write into a
  // node's region before that node calls CreateSegment. Later callers only
  // check that their spec matches.
  void Register(int rank, SegmentId seg_id, const SegmentSpec& spec, const Graph& graph);

  Transport& transport_;
  // Serializes collective segment creation across rank threads. Taken only
  // there: the data path never locks.
  Mutex mu_;
  std::vector<std::unique_ptr<Dstorm>> nodes_;  // fixed at construction
  std::vector<SegmentSpec> specs_ MALT_GUARDED_BY(mu_);
};

}  // namespace malt

#endif  // SRC_DSTORM_DSTORM_H_
