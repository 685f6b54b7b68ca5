//===- tests/runtime/MonitorTest.cpp --------------------------------------==//

#include "runtime/Monitor.h"

#include "metrics/Metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace ren::runtime;
using namespace ren::metrics;

namespace {

MetricSnapshot snap() { return MetricsRegistry::get().snapshot(); }

} // namespace

TEST(MonitorTest, MutualExclusionUnderContention) {
  Monitor M;
  long Counter = 0;
  constexpr int Threads = 4;
  constexpr int PerThread = 5000;
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&] {
      for (int I = 0; I < PerThread; ++I) {
        Synchronized Sync(M);
        ++Counter; // data race iff the monitor is broken
      }
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(Counter, static_cast<long>(Threads) * PerThread);
}

TEST(MonitorTest, Reentrancy) {
  Monitor M;
  M.enter();
  M.enter();
  EXPECT_TRUE(M.heldByCurrentThread());
  M.exit();
  EXPECT_TRUE(M.heldByCurrentThread());
  M.exit();
  EXPECT_FALSE(M.heldByCurrentThread());
}

TEST(MonitorTest, TryEnterFailsWhenHeldElsewhere) {
  Monitor M;
  M.enter();
  bool OtherGotIt = true;
  std::thread Other([&] { OtherGotIt = M.tryEnter(); });
  Other.join();
  EXPECT_FALSE(OtherGotIt);
  M.exit();
}

TEST(MonitorTest, TryEnterSucceedsReentrantly) {
  Monitor M;
  M.enter();
  EXPECT_TRUE(M.tryEnter());
  M.exit();
  M.exit();
  EXPECT_FALSE(M.heldByCurrentThread());
}

// An enter against a holder that is *inside* its critical section must
// wait for that section to finish — the holder's updates must be visible
// to the next owner, and the critical sections must never overlap.
TEST(MonitorTest, EnterWaitsForHoldersCriticalSection) {
  Monitor M;
  int Shared = 0;
  std::atomic<bool> InSection{false};
  std::thread Owner([&] {
    M.enter(); // first touch: thin acquire
    InSection.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Shared = 42;
    M.exit();
  });
  while (!InSection.load())
    std::this_thread::yield();
  M.enter(); // must block until Owner's section completes
  EXPECT_EQ(Shared, 42);
  M.exit();
  Owner.join();
}

// Critical sections of distinct monitors nest: ownership is per-monitor
// state, not per-thread, so holding one monitor must not disturb entering
// (or exiting) another.
TEST(MonitorTest, MonitorsNestIndependently) {
  Monitor M1, M2;
  M1.enter();
  M2.enter();
  EXPECT_TRUE(M1.heldByCurrentThread());
  EXPECT_TRUE(M2.heldByCurrentThread());
  M1.exit(); // out of order on purpose
  EXPECT_FALSE(M1.heldByCurrentThread());
  EXPECT_TRUE(M2.heldByCurrentThread());
  M2.exit();
  EXPECT_FALSE(M2.heldByCurrentThread());
}

TEST(MonitorTest, CountsSynchMetric) {
  Monitor M;
  MetricSnapshot Before = snap();
  for (int I = 0; I < 10; ++I) {
    Synchronized Sync(M);
  }
  MetricSnapshot D = MetricSnapshot::delta(Before, snap());
  EXPECT_EQ(D.get(Metric::Synch), 10u);
}

// The metric rule: Metric::Synch counts *successful acquisitions* only —
// one per enter (initial or reentrant) and per succeeding tryEnter; a
// failed tryEnter contributes nothing. Pins the rule the thin-lock
// rewrite standardized across enter/tryEnter.
TEST(MonitorTest, SynchCountsSuccessfulAcquisitionsOnly) {
  Monitor M;
  MetricSnapshot Before = snap();
  M.enter();                  // +1
  EXPECT_TRUE(M.tryEnter());  // +1 (reentrant success)
  M.exit();
  std::thread Other([&] {
    EXPECT_FALSE(M.tryEnter()); // +0 (failed acquisition)
  });
  Other.join();
  M.exit();
  MetricSnapshot D = MetricSnapshot::delta(Before, snap());
  EXPECT_EQ(D.get(Metric::Synch), 2u);
}

// A contended enter still counts exactly one Synch per call site, no
// matter how many spin/park rounds the slow path needed.
TEST(MonitorTest, ContendedEnterCountsOneSynchPerCall) {
  Monitor M;
  MetricSnapshot Before = snap();
  M.enter(); // +1
  std::thread Blocked([&] {
    M.enter(); // +1, through the inflated path
    M.exit();
  });
  while (M.contendedAcquirers() < 1)
    std::this_thread::yield();
  M.exit();
  Blocked.join();
  MetricSnapshot D = MetricSnapshot::delta(Before, snap());
  EXPECT_EQ(D.get(Metric::Synch), 2u);
}

// wait/waitFor count one Metric::Wait per call and notifyOne/notifyAll
// one Metric::Notify per call — including a timed wait that expires.
TEST(MonitorTest, WaitAndNotifyCountExactlyPerCall) {
  Monitor M;
  MetricSnapshot Before = snap();
  {
    Synchronized Sync(M);
    EXPECT_FALSE(M.waitFor(1)); // +1 Wait, timeout path
    M.notifyOne();              // +1 Notify (empty wait set)
    M.notifyAll();              // +1 Notify
  }
  MetricSnapshot D = MetricSnapshot::delta(Before, snap());
  EXPECT_EQ(D.get(Metric::Wait), 1u);
  EXPECT_EQ(D.get(Metric::Notify), 2u);
}

TEST(MonitorTest, WaitNotifyHandshake) {
  Monitor M;
  bool Ready = false;
  std::thread Producer([&] {
    Synchronized Sync(M);
    Ready = true;
    M.notifyOne();
  });
  {
    Synchronized Sync(M);
    M.waitUntil([&] { return Ready; });
    EXPECT_TRUE(Ready);
  }
  Producer.join();
}

TEST(MonitorTest, NotifyAllWakesEveryWaiter) {
  Monitor M;
  bool Go = false;
  int Woken = 0;
  constexpr int Waiters = 3;
  std::vector<std::thread> Workers;
  for (int T = 0; T < Waiters; ++T)
    Workers.emplace_back([&] {
      Synchronized Sync(M);
      M.waitUntil([&] { return Go; });
      ++Woken;
    });
  // Let the waiters reach wait().
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    Synchronized Sync(M);
    Go = true;
    M.notifyAll();
  }
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(Woken, Waiters);
}

TEST(MonitorTest, WaitRestoresRecursionDepth) {
  Monitor M;
  std::atomic<bool> Woke{false};
  // Notify repeatedly until the waiter confirms, so a wakeup can never be
  // missed regardless of scheduling.
  std::thread Notifier([&] {
    while (!Woke.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      Synchronized Sync(M);
      M.notifyAll();
    }
  });
  M.enter();
  M.enter(); // depth 2
  M.wait();
  Woke.store(true);
  // After wait we must again hold the monitor at depth 2.
  EXPECT_TRUE(M.heldByCurrentThread());
  M.exit();
  EXPECT_TRUE(M.heldByCurrentThread());
  M.exit();
  EXPECT_FALSE(M.heldByCurrentThread());
  Notifier.join();
}

TEST(MonitorTest, WaitForTimesOut) {
  Monitor M;
  Synchronized Sync(M);
  EXPECT_FALSE(M.waitFor(10));
}

TEST(MonitorTest, CountsWaitAndNotifyMetrics) {
  Monitor M;
  MetricSnapshot Before = snap();
  std::atomic<bool> Woke{false};
  std::thread Notifier([&] {
    while (!Woke.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      Synchronized Sync(M);
      M.notifyOne();
    }
  });
  {
    Synchronized Sync(M);
    M.wait();
  }
  Woke.store(true);
  Notifier.join();
  MetricSnapshot D = MetricSnapshot::delta(Before, snap());
  EXPECT_GE(D.get(Metric::Wait), 1u);
  EXPECT_GE(D.get(Metric::Notify), 1u);
}
