// Deterministic discrete-event cluster simulator.
//
// This module replaces the paper's physical cluster (8 machines, 56 Gbps
// InfiniBand). Every cluster node ("rank") runs real application code as a
// fiber (src/base/fiber.h) on the thread that calls Run(). The engine picks
// the next item — the earliest pending network event, or the process whose
// virtual clock is smallest — and switches into that process until it
// yields. Virtual time is integer nanoseconds, so the schedule — and
// therefore every experiment — is exactly reproducible.
//
// Processes interact with virtual time through three calls:
//   Advance(dt)      — consume dt of modeled compute time, then yield.
//   WaitUntil(pred)  — block until pred() holds (re-checked after every
//                      event/slice); optional deadline.
//   now()            — current virtual clock of this process.
//
// Network transports (src/simnet) schedule events with ScheduleEvent(); the
// engine applies them in (time, sequence) order, which makes one-sided RDMA
// writes visible at exactly their arrival time.
//
// Failure injection: ScheduleKill(pid, t) terminates a process at its first
// yield point at or after t (fail-stop). Kill hooks let higher layers mark
// the node's memory regions dead.

#ifndef SRC_SIM_ENGINE_H_
#define SRC_SIM_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "src/base/fiber.h"
#include "src/base/time_units.h"

namespace malt {

class Engine;

// Thrown inside a process when it has been killed; the engine catches it at
// the bottom of the process's fiber, after the stack has unwound. Training
// code may catch and rethrow it (e.g. RAII cleanup) but must not swallow it.
struct ProcessKilled {
  int pid;
};

enum class ProcState : uint8_t {
  kRunnable,  // wants to run
  kRunning,   // its fiber is running
  kBlocked,   // waiting on a predicate
  kDone,      // body returned
  kKilled,    // terminated by failure injection
};

// Handle passed to process bodies. All methods must be called from inside the
// body, i.e. on the process's own fiber while it runs.
class Process {
 public:
  int pid() const { return pid_; }
  const std::string& name() const { return name_; }
  SimTime now() const { return clock_; }
  Engine& engine() const { return *engine_; }

  // Consumes `dt` of virtual compute time, then yields to the scheduler.
  void Advance(SimDuration dt);

  // Yields without consuming time (lets earlier events/processes run).
  void Yield();

  // Blocks until pred() returns true. The predicate is evaluated by the
  // scheduler after every applied event and every process slice; it must be
  // a pure function of simulator-protected state.
  void WaitUntil(std::function<bool()> pred);

  // Like WaitUntil but wakes at `deadline` at the latest.
  // Returns true if the predicate held, false on timeout.
  bool WaitUntilOr(std::function<bool()> pred, SimTime deadline);

  // Blocks until the given virtual time.
  void SleepUntil(SimTime t);

 private:
  friend class Engine;
  Process() = default;

  void CheckKilled();

  Engine* engine_ = nullptr;
  int pid_ = -1;
  std::string name_;
  SimTime clock_ = 0;

  // Scheduler-owned state.
  ProcState state_ = ProcState::kRunnable;
  std::function<bool()> pred_;
  SimTime deadline_ = -1;  // -1: none
  bool timed_out_ = false;
  bool kill_pending_ = false;
  std::function<void(Process&)> body_;
  std::unique_ptr<Fiber> fiber_;  // exists only during Run()
};

struct EngineStats {
  int64_t events_applied = 0;
  int64_t slices_run = 0;
  int64_t wakeups = 0;
};

class Engine {
 public:
  Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Registers a process. Must be called before Run(). Returns the pid
  // (dense, starting at 0).
  int AddProcess(std::string name, std::function<void(Process&)> body);

  // Schedules fail-stop termination of `pid` at virtual time `when`.
  void ScheduleKill(int pid, SimTime when);

  // Schedules `fn` to run at virtual time `when` with src/dst attribution
  // (used by the fabric; ties broken by insertion sequence). May be called
  // before Run() or from inside event/process context.
  void ScheduleEvent(SimTime when, std::function<void()> fn);

  // Registers a hook invoked (under the scheduler) when a process is killed.
  void AddKillHook(std::function<void(int pid)> hook);

  // Runs until every process is done or killed. Aborts with a diagnostic on
  // deadlock (all processes blocked without deadlines and no pending events).
  void Run();

  // Virtual time of the most recently dispatched item.
  SimTime now() const { return current_time_; }

  int process_count() const { return static_cast<int>(procs_.size()); }
  bool alive(int pid) const;
  ProcState state(int pid) const;
  const EngineStats& stats() const { return stats_; }

  // Test hook: returns a deterministic hash-friendly trace of dispatch
  // decisions when enabled before Run().
  void EnableTrace() { trace_enabled_ = true; }
  const std::vector<std::string>& trace() const { return trace_; }

 private:
  friend class Process;

  struct Event {
    SimTime when;
    uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Event& other) const {
      return when != other.when ? when > other.when : seq > other.seq;
    }
  };

  // Called on a process's fiber: records its new state and switches back to
  // the scheduler.
  void YieldFromProcess(Process& p, ProcState new_state);

  // Scheduler internals (run on the thread that called Run()).
  void RunBody(Process& p);
  void ApplyEvent(Event event);
  void RunProcessSlice(Process& p);
  void ReevaluateBlocked(SimTime wake_time);
  void KillProcess(Process& p);
  [[noreturn]] void ReportDeadlock();

  std::vector<std::unique_ptr<Process>> procs_;  // append-only before Run()
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  uint64_t next_event_seq_ = 0;
  std::vector<std::function<void(int)>> kill_hooks_;
  SimTime current_time_ = 0;
  bool running_ = false;
  bool trace_enabled_ = false;
  std::vector<std::string> trace_;
  EngineStats stats_;
};

}  // namespace malt

#endif  // SRC_SIM_ENGINE_H_
