#include "src/sim/engine.h"

#include <algorithm>

#include "src/base/log.h"

namespace malt {

// ---------------------------------------------------------------------------
// Execution model
//
// The engine is single-threaded. Run() executes the scheduler loop on the
// calling thread and runs each process as a Fiber on that same thread: a
// slice is Fiber::Resume(), and a process's yield is Fiber::Suspend(). At any
// instant either the scheduler or exactly one process runs, so neither
// simulator state nor application state needs locking, and event callbacks
// may call ScheduleEvent() directly.
// ---------------------------------------------------------------------------

void Process::Advance(SimDuration dt) {
  MALT_CHECK(dt >= 0) << "Advance with negative duration " << dt;
  clock_ += dt;
  engine_->YieldFromProcess(*this, ProcState::kRunnable);
}

void Process::Yield() { engine_->YieldFromProcess(*this, ProcState::kRunnable); }

void Process::WaitUntil(std::function<bool()> pred) {
  if (pred()) {
    return;
  }
  pred_ = std::move(pred);
  deadline_ = -1;
  engine_->YieldFromProcess(*this, ProcState::kBlocked);
}

bool Process::WaitUntilOr(std::function<bool()> pred, SimTime deadline) {
  if (pred()) {
    return true;
  }
  if (deadline <= clock_) {
    return false;
  }
  pred_ = std::move(pred);
  deadline_ = deadline;
  timed_out_ = false;
  engine_->YieldFromProcess(*this, ProcState::kBlocked);
  return !timed_out_;
}

void Process::SleepUntil(SimTime t) {
  if (t <= clock_) {
    return;
  }
  Advance(t - clock_);
}

void Process::CheckKilled() {
  if (kill_pending_) {
    throw ProcessKilled{pid_};
  }
}

int Engine::AddProcess(std::string name, std::function<void(Process&)> body) {
  MALT_CHECK(!running_) << "AddProcess after Run()";
  auto proc = std::unique_ptr<Process>(new Process());
  proc->engine_ = this;
  proc->pid_ = static_cast<int>(procs_.size());
  proc->name_ = std::move(name);
  proc->body_ = std::move(body);
  procs_.push_back(std::move(proc));
  return procs_.back()->pid_;
}

void Engine::ScheduleKill(int pid, SimTime when) {
  // Validated at fire time: kills are routinely scheduled before processes
  // are registered (test setup, experiment scripts).
  ScheduleEvent(when, [this, pid] {
    MALT_CHECK(pid >= 0 && pid < static_cast<int>(procs_.size())) << "bad pid " << pid;
    KillProcess(*procs_[static_cast<size_t>(pid)]);
  });
}

void Engine::ScheduleEvent(SimTime when, std::function<void()> fn) {
  events_.push(Event{when, next_event_seq_++, std::move(fn)});
}

void Engine::AddKillHook(std::function<void(int pid)> hook) {
  kill_hooks_.push_back(std::move(hook));
}

bool Engine::alive(int pid) const {
  return procs_[static_cast<size_t>(pid)]->state_ != ProcState::kKilled;
}

ProcState Engine::state(int pid) const { return procs_[static_cast<size_t>(pid)]->state_; }

void Engine::YieldFromProcess(Process& p, ProcState new_state) {
  p.state_ = new_state;
  p.fiber_->Suspend();
  // Resumed: the scheduler set kRunning. A kill delivered meanwhile unwinds
  // the process's stack from here.
  p.CheckKilled();
}

void Engine::RunBody(Process& p) {
  bool killed = false;
  try {
    p.CheckKilled();
    p.body_(p);
  } catch (const ProcessKilled&) {
    killed = true;
  }
  p.state_ = (killed || p.kill_pending_) ? ProcState::kKilled : ProcState::kDone;
}

void Engine::KillProcess(Process& p) {
  // Runs in event context (on the scheduler).
  if (p.state_ == ProcState::kDone || p.state_ == ProcState::kKilled || p.kill_pending_) {
    return;
  }
  p.kill_pending_ = true;
  p.clock_ = std::max(p.clock_, current_time_);
  if (p.state_ == ProcState::kBlocked) {
    // Wake it so the pending kill unwinds its stack.
    p.state_ = ProcState::kRunnable;
    p.pred_ = nullptr;
    p.deadline_ = -1;
  }
  MALT_LOG_S(kInfo) << "sim: killing process " << p.pid_ << " (" << p.name_ << ") at t="
                    << ToSeconds(current_time_) << "s";
  for (const auto& hook : kill_hooks_) {
    hook(p.pid_);
  }
}

void Engine::ReevaluateBlocked(SimTime wake_time) {
  for (const auto& proc : procs_) {
    Process& p = *proc;
    if (p.state_ != ProcState::kBlocked) {
      continue;
    }
    if (p.pred_ && p.pred_()) {
      p.state_ = ProcState::kRunnable;
      p.pred_ = nullptr;
      p.deadline_ = -1;
      p.timed_out_ = false;
      p.clock_ = std::max(p.clock_, wake_time);
      ++stats_.wakeups;
    }
  }
}

void Engine::ApplyEvent(Event event) {
  // now() is the time of the current dispatch. It is not globally monotonic
  // across dispatches (a coarse process slice may already have run past this
  // event's time); consumers needing ordering use absolute event times.
  current_time_ = event.when;
  if (trace_enabled_) {
    trace_.push_back("E@" + std::to_string(event.when));
  }
  event.fn();
  ++stats_.events_applied;
  ReevaluateBlocked(event.when);
}

void Engine::RunProcessSlice(Process& p) {
  current_time_ = p.clock_;
  if (trace_enabled_) {
    trace_.push_back("P" + std::to_string(p.pid_) + "@" + std::to_string(p.clock_));
  }
  p.state_ = ProcState::kRunning;
  p.fiber_->Resume();  // returns at the process's next yield, or its end
  ++stats_.slices_run;
  current_time_ = p.clock_;
  ReevaluateBlocked(p.clock_);
}

void Engine::ReportDeadlock() {
  std::string detail = "simulator deadlock; blocked processes:";
  for (const auto& proc : procs_) {
    if (proc->state_ == ProcState::kBlocked) {
      detail += " " + proc->name_ + "(pid=" + std::to_string(proc->pid_) +
                ",t=" + std::to_string(proc->clock_) + ")";
    }
  }
  MALT_CHECK(false) << detail;
  std::abort();  // unreachable; MALT_CHECK aborts
}

void Engine::Run() {
  MALT_CHECK(!running_) << "Engine::Run called twice";
  running_ = true;

  for (const auto& proc : procs_) {
    Process* p = proc.get();
    p->fiber_ = std::make_unique<Fiber>([this, p] { RunBody(*p); });
  }

  for (;;) {
    // Pick the earliest actionable item. Tie order: events, then deadline
    // expirations, then process slices — fixed so the schedule is
    // deterministic.
    const bool have_event = !events_.empty();
    const SimTime event_time = have_event ? events_.top().when : 0;

    Process* best_proc = nullptr;
    Process* best_deadline = nullptr;
    bool all_finished = true;
    for (const auto& proc : procs_) {
      Process& p = *proc;
      if (p.state_ == ProcState::kRunnable) {
        all_finished = false;
        if (best_proc == nullptr || p.clock_ < best_proc->clock_) {
          best_proc = &p;
        }
      } else if (p.state_ == ProcState::kBlocked) {
        all_finished = false;
        if (p.deadline_ >= 0 &&
            (best_deadline == nullptr || p.deadline_ < best_deadline->deadline_)) {
          best_deadline = &p;
        }
      }
    }

    if (all_finished) {
      if (!have_event) {
        break;
      }
      // Drain remaining events (e.g. in-flight writes after all ranks done).
      Event event = events_.top();
      events_.pop();
      ApplyEvent(std::move(event));
      continue;
    }

    // Candidate times.
    struct Choice {
      SimTime t;
      int category;  // 0 event, 1 deadline, 2 process
    };
    Choice chosen{0, -1};
    if (have_event) {
      chosen = {event_time, 0};
    }
    if (best_deadline != nullptr &&
        (chosen.category < 0 || best_deadline->deadline_ < chosen.t)) {
      chosen = {best_deadline->deadline_, 1};
    }
    if (best_proc != nullptr && (chosen.category < 0 || best_proc->clock_ < chosen.t)) {
      chosen = {best_proc->clock_, 2};
    }
    if (chosen.category < 0) {
      ReportDeadlock();
    }

    switch (chosen.category) {
      case 0: {
        Event event = events_.top();
        events_.pop();
        ApplyEvent(std::move(event));
        break;
      }
      case 1: {
        Process& p = *best_deadline;
        p.state_ = ProcState::kRunnable;
        p.timed_out_ = true;
        p.pred_ = nullptr;
        p.clock_ = std::max(p.clock_, p.deadline_);
        p.deadline_ = -1;
        current_time_ = std::max(current_time_, p.clock_);
        break;
      }
      case 2: {
        RunProcessSlice(*best_proc);
        break;
      }
      default:
        ReportDeadlock();
    }
  }

  // Every process is done or killed, so every fiber ran to its end.
  for (const auto& proc : procs_) {
    proc->fiber_.reset();
  }
}

}  // namespace malt
