// Deterministic serializing scheduler for the model checker (DESIGN.md §11).
//
// A Scheduler runs one harness execution: it runs the harness's N threads
// as fibers (src/base/fiber.h) on its own OS thread, so exactly ONE runs at a
// time, and switches only at sync points (every mc:: shim operation,
// src/base/mc.h). Which action runs
// next is decided by a Strategy — a replayed schedule prefix during
// systematic exploration, or a PCT priority schedule for randomized search.
// The sequence of choices made is the *schedule trace*: a list of
// (kind, thread, var_ix) decisions that replays the execution exactly.
//
// Weak memory model. Each thread owns a FIFO store buffer. Relaxed and plain
// stores are appended to the buffer — globally invisible, but forwarded to
// the owning thread's own loads (newest-entry-wins). A buffered store
// becomes visible when it *commits*:
//   - release operations (release store/RMW/fence) drain the owner's buffer
//     in program order, ONE commit per schedule step, so other threads can
//     interleave between two commits of the same drain;
//   - the scheduler may, as a schedulable action of its own (kCommitOldest),
//     commit the oldest pending store of any (thread, variable) pair.
//     Per-variable program order is preserved (coherence), but stores to
//     DIFFERENT variables may commit in either order. That models the
//     store-store reordering a missing release fence permits — exactly what
//     the planted fence-drop mutations need observable.
// Acquire operations add nothing beyond their load: the model never reorders
// loads, so acquire ordering always holds. The model is therefore weaker
// than x86-TSO on the store side and stronger than C++11 on the load side —
// sound for the targeted bug classes (publish-before-init, torn reads, lost
// ring entries); see DESIGN.md §11 for the full argument.
//
// Blocking. MALT_MC_SPIN_YIELD marks the calling thread BLOCKED until the
// global commit epoch advances (some store becomes visible); a spin loop
// therefore costs one schedule decision per state change instead of
// enumerating busy-wait permutations. If no action is enabled and some
// thread is still live, the execution is declared deadlocked. Executions
// longer than a step bound are declared divergent.

#ifndef SRC_MODELCHECK_SCHED_H_
#define SRC_MODELCHECK_SCHED_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/mc.h"

namespace malt {
namespace modelcheck {

// One schedulable action, as recorded in a schedule trace.
struct SchedAction {
  // kRunThread: run thread `tid` from its current sync point to its next.
  // kCommitOldest: commit the oldest pending store of (tid, var_ix), where
  // var_ix indexes the thread's distinct pending variables in the order of
  // their oldest buffered entry (0 = variable with the oldest entry).
  enum class Kind : uint8_t { kRunThread, kCommitOldest };
  Kind kind = Kind::kRunThread;
  int tid = 0;
  int var_ix = 0;  // only meaningful for kCommitOldest

  bool operator==(const SchedAction&) const = default;
};

// Coarse effect class of an enabled action — the explorer's independence
// relation keys off this (see explore.cc): kInvisible actions (loads,
// buffered stores, thread-local startup code) commute freely across
// threads; kCommit actions change global state and are conservatively
// dependent with everything.
enum class OpClass : uint8_t { kInvisible, kCommit };

struct EnabledInfo {
  SchedAction act;
  OpClass cls = OpClass::kCommit;
};

// Strategy: decides the next action given the current enabled set. Called
// once per step from the scheduler's own thread; `enabled` is never empty
// and its order is deterministic (kRunThread by tid, then kCommitOldest by
// tid/var_ix). Returns the index of the chosen action.
class Strategy {
 public:
  virtual ~Strategy() = default;
  virtual size_t Choose(const std::vector<EnabledInfo>& enabled) = 0;
};

struct SchedResult {
  enum class Status : uint8_t {
    kOk,         // all threads ran to completion
    kDeadlock,   // live threads, none runnable, nothing left to commit
    kDivergent,  // step bound exceeded (livelock or unbounded loop)
    kFailed,     // harness invariant failed (via Scheduler::Fail)
  };
  Status status = Status::kOk;
  std::string failure;             // message from Fail(), if any
  std::vector<SchedAction> trace;  // the executed schedule, replayable
  int64_t steps = 0;
};

class Scheduler {
 public:
  struct Options {
    int64_t max_steps = 200000;  // divergence bound per execution
  };

  Scheduler() : Scheduler(Options{}) {}
  explicit Scheduler(Options options);
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Runs `threads` (each body is one harness thread) under `strategy` until
  // every thread finishes or the execution deadlocks/diverges/fails. May be
  // called repeatedly — one call per explored execution.
  SchedResult Run(const std::vector<std::function<void()>>& threads, Strategy* strategy);

  // Harness invariant failure: records `message` (first failure wins) and
  // aborts the execution; remaining threads are released to free-run so
  // they can be joined. Callable from harness thread bodies only.
  static void Fail(const std::string& message);

 private:
  Options options_;
};

// --- strategies --------------------------------------------------------------

// Always the first enabled action: the "natural" mostly-sequential execution
// (thread 0 runs to its first block, etc.). Deterministic.
class FirstEnabledStrategy : public Strategy {
 public:
  size_t Choose(const std::vector<EnabledInfo>& enabled) override;
};

// Replays a recorded schedule, then falls back to `tail` (FirstEnabled when
// null). A replayed action that is not currently enabled means the harness
// itself is nondeterministic — reported via Scheduler::Fail.
class ReplayStrategy : public Strategy {
 public:
  explicit ReplayStrategy(std::vector<SchedAction> prefix, Strategy* tail = nullptr)
      : prefix_(std::move(prefix)), tail_(tail) {}
  size_t Choose(const std::vector<EnabledInfo>& enabled) override;

 private:
  std::vector<SchedAction> prefix_;
  size_t next_ = 0;
  Strategy* tail_;
  FirstEnabledStrategy first_;
};

// PCT (probabilistic concurrency testing, Burckhardt et al. ASPLOS'10):
// every thread draws a distinct random priority; the highest-priority
// enabled thread runs, except at d-1 pre-drawn change points where the
// current highest is demoted below everyone. Commit actions are scheduled
// with their owning thread's priority (a pending commit is "the store
// finally leaving the buffer"). Deterministic for a fixed seed.
class PctStrategy : public Strategy {
 public:
  // `depth` is the PCT bug depth d (d-1 priority change points), spread
  // uniformly over `expected_steps`.
  PctStrategy(uint64_t seed, int num_threads, int depth, int64_t expected_steps);
  size_t Choose(const std::vector<EnabledInfo>& enabled) override;

 private:
  uint64_t NextRand();

  uint64_t rng_state_;
  std::vector<int> priority_;           // [tid]; higher runs first
  std::vector<int64_t> change_points_;  // sorted step numbers
  size_t next_change_ = 0;
  int64_t step_ = 0;
  int next_low_ = 0;  // next demotion priority, strictly below all others
};

}  // namespace modelcheck
}  // namespace malt

#endif  // SRC_MODELCHECK_SCHED_H_
