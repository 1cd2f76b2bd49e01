// Per-rank trace event ring.
//
// A bounded ring of typed events stamped with virtual SimTime. Producers emit
// begin/end ("B"/"E") spans, instants ("i"), complete spans ("X"), and flow
// events ("s"/"t"/"f") with string-literal names (the ring stores the
// pointers; callers must pass static strings). When the ring is full the
// oldest event is overwritten and `dropped()` counts the loss, so a long run
// keeps its newest window instead of failing or growing without bound.
//
// Thread safety: Emit/ForEach/Snapshot/Clear take an internal spinlock. Under
// the shmem transport a sender's thread emits receiver-side apply events into
// the receiver's ring concurrently with the receiver's own phase spans, and
// the background sampler reads `dropped()` while ranks are still emitting.
//
// Flow events: a logical update (one PostObject) is stitched across rank
// timelines by emitting 's' (flow start, sender), 't' (flow step, receiver
// apply), and 'f' (flow finish, gather-fold consume) events that share a
// flow id and the "dataflow" category. Perfetto renders the triple as a
// clickable arrow from the scatter span through the apply slice into the
// gather span.
//
// Export: AppendChromeTrace() renders one or more rings (one per rank) as a
// Chrome trace_event JSON array — loadable in chrome://tracing and Perfetto —
// with pid 0 ("malt cluster") and tid = rank, so a whole simulated cluster
// run is inspectable on one timeline. Virtual nanoseconds are emitted as the
// viewer's native microseconds.

#ifndef SRC_TELEMETRY_TRACE_H_
#define SRC_TELEMETRY_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/thread_annotations.h"
#include "src/base/time_units.h"

namespace malt {

// Shared static name for update-lineage flow events: the 's'/'t'/'f' triple
// of one scatter must agree on name + category + id for viewers to link them.
inline constexpr char kFlowUpdateName[] = "update";

struct TraceEvent {
  const char* name = "";  // static string (literal); not owned
  char ph = 'i';          // Chrome phase: 'B', 'E', 'i', 'X', 's', 't', 'f'
  SimTime ts = 0;
  SimDuration dur = 0;             // 'X' events only
  const char* arg_name = nullptr;  // optional single argument (static string)
  int64_t arg = 0;
  uint64_t flow_id = 0;  // 's'/'t'/'f' events only; see MakeFlowId()
  // Export track override: -1 renders on the owning ring's track, >= 0 on
  // that rank's track. Lets a sender log receiver-side apply events into its
  // OWN ring (keeping every ring single-writer — no cross-thread lock
  // contention on the post hot path) while the viewer still draws them on
  // the receiver's timeline.
  int32_t tid = -1;
};

// Packs one update's lineage key into a Chrome flow id:
//   (src rank : 8 | dst rank : 8 | rkey : 16 | wire seq : 32).
// The consumer recomputes the same id from (sender, reader, segment rkey,
// slot seq) without any extra wire bytes.
constexpr uint64_t MakeFlowId(int src, int dst, uint32_t rkey, uint64_t seq) {
  return (static_cast<uint64_t>(src & 0xff) << 56) | (static_cast<uint64_t>(dst & 0xff) << 48) |
         (static_cast<uint64_t>(rkey & 0xffff) << 32) | (seq & 0xffffffff);
}

class TraceRing {
 public:
  explicit TraceRing(size_t capacity = 16384);

  void Emit(const TraceEvent& event);
  // Two events under one lock acquisition — the shmem apply path emits an
  // 'X' slice plus its 't' flow step per one-sided write, and paying the
  // lock once keeps the tracing overhead inside the throughput budget.
  void EmitPair(const TraceEvent& first, const TraceEvent& second);
  void Begin(const char* name, SimTime ts) { Emit({name, 'B', ts, 0, nullptr, 0, 0}); }
  void End(const char* name, SimTime ts) { Emit({name, 'E', ts, 0, nullptr, 0, 0}); }
  void Instant(const char* name, SimTime ts) { Emit({name, 'i', ts, 0, nullptr, 0, 0}); }
  void Instant(const char* name, SimTime ts, const char* arg_name, int64_t arg) {
    Emit({name, 'i', ts, 0, arg_name, arg, 0});
  }
  void Complete(const char* name, SimTime ts, SimDuration dur) {
    Emit({name, 'X', ts, dur, nullptr, 0, 0});
  }
  // Flow triple: start at send, step at receiver-side apply, finish at
  // gather-fold consume. `arg` conventionally carries the update's epoch.
  void FlowStart(const char* name, SimTime ts, uint64_t flow_id, int64_t iter) {
    Emit({name, 's', ts, 0, "iter", iter, flow_id});
  }
  void FlowStep(const char* name, SimTime ts, uint64_t flow_id, int64_t iter) {
    Emit({name, 't', ts, 0, "iter", iter, flow_id});
  }
  void FlowFinish(const char* name, SimTime ts, uint64_t flow_id, int64_t iter) {
    Emit({name, 'f', ts, 0, "iter", iter, flow_id});
  }

  size_t capacity() const;
  size_t size() const;
  int64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  bool empty() const { return size() == 0; }

  // Visits retained events oldest-first (emission order; per-rank timestamps
  // are monotone, so this is also SimTime order). Holds the ring lock for the
  // whole walk: callbacks must not re-enter the same ring.
  void ForEach(const std::function<void(const TraceEvent&)>& fn) const;
  std::vector<TraceEvent> Snapshot() const;
  void Clear();

 private:
  void EmitLocked(const TraceEvent& event) MALT_REQUIRES(mu_);

  // malt::SpinLock (annotated; see src/base/mutex.h for why a spinlock): the
  // shmem hot path takes this lock several times per traced one-sided write,
  // from multiple sender threads into one receiver ring, and the critical
  // section is a few stores.
  mutable SpinLock mu_;
  std::vector<TraceEvent> buf_ MALT_GUARDED_BY(mu_);
  size_t next_ MALT_GUARDED_BY(mu_) = 0;  // slot the next emit writes
  size_t size_ MALT_GUARDED_BY(mu_) = 0;
  std::atomic<int64_t> dropped_{0};
};

// Renders `rings` (tid = index) as one Chrome trace_event JSON array. Every
// event object carries the full required key set {"name","ph","ts","pid",
// "tid"}; thread-name metadata records label each rank's track. Flow events
// additionally carry {"cat","id"} and bind to their enclosing slice
// ("bp":"e").
void AppendChromeTrace(std::string* out, const std::vector<const TraceRing*>& rings);

// Renders one event as a Chrome trace_event object on track `tid` (the
// per-event renderer AppendChromeTrace uses; the flight recorder's trace
// tail reuses it).
void AppendTraceEventJson(std::string* out, const TraceEvent& e, int tid);

}  // namespace malt

#endif  // SRC_TELEMETRY_TRACE_H_
