// Tests for the discrete-event engine: virtual-time ordering, blocking,
// deadlines, kill injection, and determinism.

#include "src/sim/engine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace malt {
namespace {

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
  Engine engine;
  bool reached_after_wait = false;
  const int pid = engine.AddProcess("victim", [&](Process& p) {
    p.WaitUntil([] { return false; });  // would deadlock without the kill
    reached_after_wait = true;
  });
  engine.ScheduleKill(pid, 300);
  engine.AddProcess("other", [&](Process& p) { p.Advance(1000); });
  engine.Run();
  EXPECT_FALSE(reached_after_wait);
  EXPECT_FALSE(engine.alive(pid));
  EXPECT_EQ(engine.state(pid), ProcState::kKilled);
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
  Engine engine;
  int finished = 0;
  for (int pid = 0; pid < 32; ++pid) {
    engine.AddProcess("p" + std::to_string(pid), [&, pid](Process& p) {
      for (int i = 0; i < 5; ++i) {
        p.Advance(1 + pid);
      }
      ++finished;
    });
  }
  engine.Run();
  EXPECT_EQ(finished, 32);
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
