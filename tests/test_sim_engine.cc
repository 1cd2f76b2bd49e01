// Tests for the discrete-event engine: virtual-time ordering, blocking,
// deadlines, kill injection, determinism, and the fibers processes run on.

#include "src/sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace malt {
namespace {

// Number of OS threads in this process (Linux: one /proc/self/task entry
// per thread).
int ThreadCount() {
  int n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

// what() of the exception currently being handled, as the C++ runtime sees
// it (not as a handler's reference parameter does).
std::string CurrentExceptionWhat() {
  try {
    std::rethrow_exception(std::current_exception());
  } catch (const std::exception& e) {
    return e.what();
  }
}

TEST(Engine, SingleProcessAdvancesClock) {
  Engine engine;
  SimTime end_time = -1;
  engine.AddProcess("p0", [&](Process& p) {
    EXPECT_EQ(p.now(), 0);
    p.Advance(100);
    EXPECT_EQ(p.now(), 100);
    p.Advance(50);
    end_time = p.now();
  });
  engine.Run();
  EXPECT_EQ(end_time, 150);
}

TEST(Engine, ProcessesInterleaveInVirtualTimeOrder) {
  Engine engine;
  std::vector<std::pair<int, SimTime>> order;
  // p0 takes big steps, p1 small steps; the engine must run whichever has
  // the smaller clock.
  engine.AddProcess("p0", [&](Process& p) {
    for (int i = 0; i < 3; ++i) {
      order.push_back({0, p.now()});
      p.Advance(100);
    }
  });
  engine.AddProcess("p1", [&](Process& p) {
    for (int i = 0; i < 6; ++i) {
      order.push_back({1, p.now()});
      p.Advance(50);
    }
  });
  engine.Run();
  // Recorded (pid, time) pairs must be sorted by time.
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(order[i].second, order[i - 1].second)
        << "entry " << i << " ran out of order";
  }
}

TEST(Engine, EventsApplyAtTheirTime) {
  Engine engine;
  int flag = 0;
  SimTime observed_at = -1;
  engine.ScheduleEvent(500, [&] { flag = 1; });
  engine.AddProcess("poller", [&](Process& p) {
    p.WaitUntil([&] { return flag == 1; });
    observed_at = p.now();
  });
  engine.Run();
  EXPECT_EQ(observed_at, 500);
}

TEST(Engine, WaitUntilOrTimesOut) {
  Engine engine;
  bool timed_out = false;
  engine.AddProcess("p", [&](Process& p) {
    const bool ok = p.WaitUntilOr([] { return false; }, 1000);
    timed_out = !ok;
    EXPECT_EQ(p.now(), 1000);
  });
  engine.Run();
  EXPECT_TRUE(timed_out);
}

TEST(Engine, WaitUntilOrSucceedsBeforeDeadline) {
  Engine engine;
  int flag = 0;
  engine.ScheduleEvent(200, [&] { flag = 1; });
  engine.AddProcess("p", [&](Process& p) {
    const bool ok = p.WaitUntilOr([&] { return flag == 1; }, 1000);
    EXPECT_TRUE(ok);
    EXPECT_EQ(p.now(), 200);
  });
  engine.Run();
}

TEST(Engine, KillUnwindsBlockedProcess) {
  // The guard's destructor must run during the kill's unwind, on the
  // victim's own stack, before Run() returns.
  struct Guard {
    uintptr_t* dtor_frame;
    ~Guard() {
      int local = 0;
      *dtor_frame = reinterpret_cast<uintptr_t>(&local);
    }
  };
  Engine engine;
  bool reached_after_wait = false;
  uintptr_t body_frame = 0;
  uintptr_t dtor_frame = 0;
  const int pid = engine.AddProcess("victim", [&](Process& p) {
    int local = 0;
    body_frame = reinterpret_cast<uintptr_t>(&local);
    Guard guard{&dtor_frame};
    p.WaitUntil([] { return false; });  // would deadlock without the kill
    reached_after_wait = true;
  });
  engine.ScheduleKill(pid, 300);
  engine.AddProcess("other", [&](Process& p) { p.Advance(1000); });
  int scheduler_local = 0;
  const auto scheduler_frame = reinterpret_cast<uintptr_t>(&scheduler_local);
  engine.Run();
  EXPECT_FALSE(reached_after_wait);
  EXPECT_FALSE(engine.alive(pid));
  EXPECT_EQ(engine.state(pid), ProcState::kKilled);
  ASSERT_NE(dtor_frame, 0u) << "the guard's destructor never ran";
  const auto distance = [](uintptr_t a, uintptr_t b) { return a > b ? a - b : b - a; };
  EXPECT_LT(distance(dtor_frame, body_frame), uintptr_t{64} << 10)
      << "the destructor ran off the victim's stack";
  EXPECT_GT(distance(dtor_frame, scheduler_frame), uintptr_t{64} << 10)
      << "the destructor ran on the scheduler's stack";
}

TEST(Engine, YieldInsideCatchHandlerKeepsEachException) {
  // Two processes are inside catch handlers at once and leave them in the
  // order they entered (not LIFO). With one shared caught-exception stack,
  // "a" would end "b"'s exception and "b" would then read a freed object.
  Engine engine;
  std::string a_current, a_what, b_current, b_what;
  int a_uncaught = -1;
  int b_uncaught = -1;
  engine.AddProcess("a", [&](Process& p) {
    try {
      throw std::runtime_error("from a");
    } catch (const std::exception& e) {
      p.Advance(10);  // t=0 -> 10; "b" enters its handler at t=5
      a_current = CurrentExceptionWhat();
      a_uncaught = std::uncaught_exceptions();
      a_what = e.what();
    }  // leaves first, at t=10
  });
  engine.AddProcess("b", [&](Process& p) {
    p.Advance(5);
    try {
      throw std::runtime_error("from b");
    } catch (const std::exception& e) {
      p.Advance(15);  // t=5 -> 20, after "a" left its handler
      b_current = CurrentExceptionWhat();
      b_uncaught = std::uncaught_exceptions();
      b_what = e.what();
    }
  });
  engine.Run();
  EXPECT_EQ(a_current, "from a");
  EXPECT_EQ(a_what, "from a");
  EXPECT_EQ(a_uncaught, 0);
  EXPECT_EQ(b_current, "from b");
  EXPECT_EQ(b_what, "from b");
  EXPECT_EQ(b_uncaught, 0);
  // Nothing leaked into the scheduler's own exception state.
  EXPECT_EQ(std::current_exception(), nullptr);
}

// Unbounded recursion; the depth check only keeps the compiler from proving
// the recursion infinite.
int Recurse(int depth, int limit) {
  volatile char frame[512];
  frame[0] = static_cast<char>(depth);
  if (depth >= limit) {
    return frame[0];
  }
  return Recurse(depth + 1, limit) + frame[0];
}

TEST(EngineDeathTest, StackOverflowInProcessFaultsOnGuardPage) {
  // A process that overflows its fiber stack must die on the guard page
  // below it, as a thread's overflow does, rather than write past the stack.
  EXPECT_DEATH(
      {
        Engine engine;
        engine.AddProcess("deep", [](Process& p) {
          volatile int limit = 1 << 30;
          Recurse(0, limit);
          p.Advance(1);
        });
        engine.Run();
      },
      "");
}

TEST(Engine, DestroyedWithoutRunReleasesBodies) {
  // Nothing is allocated for a process before Run(): destroying an engine
  // that never ran frees each body and its captures (LeakSanitizer checks
  // the rest under the ASan build).
  auto payload = std::make_shared<std::vector<int>>(1 << 16, 7);
  {
    Engine engine;
    for (int pid = 0; pid < 8; ++pid) {
      engine.AddProcess("p" + std::to_string(pid),
                        [payload](Process& p) { p.Advance(payload->at(0)); });
    }
    engine.ScheduleEvent(100, [payload] { (void)payload; });
    EXPECT_EQ(payload.use_count(), 10);
  }
  EXPECT_EQ(payload.use_count(), 1);
}

TEST(Engine, KillHooksRun) {
  Engine engine;
  std::vector<int> killed;
  engine.AddKillHook([&](int pid) { killed.push_back(pid); });
  const int pid = engine.AddProcess("victim", [&](Process& p) { p.Advance(10'000); });
  engine.ScheduleKill(pid, 5000);
  engine.Run();
  ASSERT_EQ(killed.size(), 1u);
  EXPECT_EQ(killed[0], pid);
}

TEST(Engine, KillAfterCompletionIsNoop) {
  Engine engine;
  const int pid = engine.AddProcess("fast", [&](Process& p) { p.Advance(10); });
  engine.ScheduleKill(pid, 1'000'000);
  engine.Run();
  EXPECT_EQ(engine.state(pid), ProcState::kDone);
}

TEST(Engine, SleepUntil) {
  Engine engine;
  engine.AddProcess("p", [&](Process& p) {
    p.SleepUntil(12345);
    EXPECT_EQ(p.now(), 12345);
    p.SleepUntil(100);  // in the past: no-op
    EXPECT_EQ(p.now(), 12345);
  });
  engine.Run();
}

TEST(Engine, DeterministicTraceAcrossRuns) {
  auto run_once = [] {
    Engine engine;
    engine.EnableTrace();
    int counter = 0;
    for (int pid = 0; pid < 4; ++pid) {
      engine.AddProcess("p" + std::to_string(pid), [&, pid](Process& p) {
        for (int i = 0; i < 10; ++i) {
          p.Advance(100 + 37 * pid);
          ++counter;
        }
      });
    }
    engine.Run();
    return engine.trace();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, ManyProcessesAllFinish) {
  for (const int procs : {32, 256}) {
    Engine engine;
    const int threads_before = ThreadCount();
    int finished = 0;
    int max_threads = 0;
    for (int pid = 0; pid < procs; ++pid) {
      engine.AddProcess("p" + std::to_string(pid), [&, pid](Process& p) {
        for (int i = 0; i < 5; ++i) {
          p.Advance(1 + pid);
        }
        max_threads = std::max(max_threads, ThreadCount());
        ++finished;
      });
    }
    engine.Run();
    EXPECT_EQ(finished, procs);
    // Processes are fibers on the calling thread: the run starts no thread.
    EXPECT_EQ(max_threads, threads_before) << procs << " processes";
  }
}

TEST(Engine, EventChainSchedulesFromEventContext) {
  Engine engine;
  std::vector<SimTime> fired;
  std::function<void()> chain = [&] {
    fired.push_back(engine.now());
    if (fired.size() < 5) {
      engine.ScheduleEvent(engine.now() + 100, chain);
    }
  };
  engine.ScheduleEvent(100, chain);
  engine.AddProcess("idle", [](Process& p) { p.Advance(1); });
  engine.Run();
  ASSERT_EQ(fired.size(), 5u);
  EXPECT_EQ(fired.back(), 500);
}

TEST(Engine, YieldDoesNotAdvanceTime) {
  Engine engine;
  engine.AddProcess("p", [&](Process& p) {
    p.Advance(42);
    p.Yield();
    EXPECT_EQ(p.now(), 42);
  });
  engine.Run();
}

}  // namespace
}  // namespace malt
