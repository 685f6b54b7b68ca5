//===- tests/forkjoin/ForkJoinPoolTest.cpp --------------------------------==//

#include "forkjoin/ForkJoinPool.h"

#include "metrics/Metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

using namespace ren::forkjoin;
using namespace ren::metrics;

TEST(ForkJoinPoolTest, InvokeReturnsResult) {
  ForkJoinPool Pool(2);
  int R = Pool.invoke([] { return 6 * 7; });
  EXPECT_EQ(R, 42);
}

TEST(ForkJoinPoolTest, InvokeVoidRuns) {
  ForkJoinPool Pool(2);
  std::atomic<bool> Ran{false};
  Pool.invoke([&] { Ran.store(true); });
  EXPECT_TRUE(Ran.load());
}

TEST(ForkJoinPoolTest, ManyForkedTasksAllComplete) {
  ForkJoinPool Pool(4);
  std::atomic<int> Count{0};
  std::vector<TaskRef<Task<void>>> Tasks;
  for (int I = 0; I < 500; ++I)
    Tasks.push_back(Pool.fork([&] { Count.fetch_add(1); }));
  for (auto &T : Tasks)
    Pool.join(T);
  EXPECT_EQ(Count.load(), 500);
}

TEST(ForkJoinPoolTest, NestedForkJoinFibonacci) {
  ForkJoinPool Pool(4);
  // Classic recursive fork/join: exercises helping joins on workers.
  std::function<long(int)> Fib = [&](int N) -> long {
    if (N < 2)
      return N;
    auto Right = Pool.fork([&, N] { return Fib(N - 2); });
    long Left = Fib(N - 1);
    Pool.join(Right);
    return Left + Right->result();
  };
  EXPECT_EQ(Pool.invoke([&] { return Fib(15); }), 610);
}

TEST(ForkJoinPoolTest, ParallelForCoversRangeExactlyOnce) {
  ForkJoinPool Pool(4);
  constexpr size_t N = 10000;
  std::vector<std::atomic<int>> Hits(N);
  Pool.parallelFor(0, N, 64, [&](size_t Lo, size_t Hi) {
    for (size_t I = Lo; I < Hi; ++I)
      Hits[I].fetch_add(1);
  });
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ForkJoinPoolTest, ParallelForEmptyRange) {
  ForkJoinPool Pool(2);
  bool Called = false;
  Pool.parallelFor(5, 5, 8, [&](size_t, size_t) { Called = true; });
  EXPECT_FALSE(Called);
}

TEST(ForkJoinPoolTest, ParallelReduceSumsRange) {
  ForkJoinPool Pool(4);
  long Sum = Pool.parallelReduce<long>(
      1, 1001, 32,
      [](size_t Lo, size_t Hi) {
        long S = 0;
        for (size_t I = Lo; I < Hi; ++I)
          S += static_cast<long>(I);
        return S;
      },
      [](long A, long B) { return A + B; });
  EXPECT_EQ(Sum, 500500);
}

TEST(ForkJoinPoolTest, OnWorkerThreadDetection) {
  ForkJoinPool Pool(2);
  EXPECT_FALSE(ForkJoinPool::onWorkerThread());
  bool OnWorker = Pool.invoke([] { return ForkJoinPool::onWorkerThread(); });
  EXPECT_TRUE(OnWorker);
}

TEST(ForkJoinPoolTest, SingleWorkerPoolStillCompletes) {
  ForkJoinPool Pool(1);
  long Sum = Pool.parallelReduce<long>(
      0, 100, 10,
      [](size_t Lo, size_t Hi) { return static_cast<long>(Hi - Lo); },
      [](long A, long B) { return A + B; });
  EXPECT_EQ(Sum, 100);
}

TEST(ForkJoinPoolTest, TaskAllocationAndParkingAreCounted) {
  MetricSnapshot Before = MetricsRegistry::get().snapshot();
  auto Delta = [&] {
    return MetricSnapshot::delta(Before, MetricsRegistry::get().snapshot());
  };
  {
    ForkJoinPool Pool(2);
    for (int I = 0; I < 50; ++I)
      Pool.invoke([] { return 1; });
    // Let the workers go idle: on a multi-core host they stay in the
    // spin phase while invokes keep arriving, and a pool destroyed right
    // away may never have parked one.
    auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (Delta().get(Metric::Park) == 0 &&
           std::chrono::steady_clock::now() < Deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  MetricSnapshot D = Delta();
  EXPECT_GE(D.get(Metric::Object), 50u) << "task objects are counted";
  EXPECT_GT(D.get(Metric::Park), 0u) << "idle workers park";
}

TEST(ForkJoinPoolTest, DefaultParallelismPositive) {
  ForkJoinPool Pool;
  EXPECT_GE(Pool.parallelism(), 1u);
}

TEST(ForkJoinPoolTest, TaskHandleUpcastsAndOutlivesPool) {
  TaskHandle Generic;
  {
    ForkJoinPool Pool(2);
    TaskRef<Task<int>> Typed = Pool.fork([] { return 99; });
    Pool.join(Typed);
    Generic = Typed; // upcast TaskRef<Task<int>> -> TaskRef<TaskBase>
    EXPECT_EQ(Typed->result(), 99);
  }
  // The handle keeps the task object alive after the pool is gone.
  ASSERT_TRUE(Generic);
  EXPECT_TRUE(Generic->isDone());
}

TEST(ForkJoinPoolDeathTest, ResultBeforeCompletionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        ForkJoinPool Pool(2);
        std::atomic<bool> Release{false};
        auto T = Pool.fork([&] {
          while (!Release.load())
            std::this_thread::yield();
          return 7;
        });
        // The task body is gated on Release, so it cannot have completed:
        // reading the result here is the API misuse REN_CHECK must catch
        // in every build type.
        int V = T->result();
        Release.store(true);
        (void)V;
      },
      "result\\(\\) read before completion");
}

// Regression test for the signalWork lost-wakeup race: workers must
// register on the idle stack *before* their final empty re-check, so an
// external submission racing with the park either sees the registration
// (and unparks) or is seen by the re-check. Under the old
// check-then-register ordering a submission could land in the window and
// strand the pool parked with work queued. Repeated park/submit cycles
// with a cold pool make that window hot; a hang here shows up as the
// 60-second watchdog below.
TEST(ForkJoinPoolTest, ExternalSubmitAfterWorkersParkIsNotLost) {
  ForkJoinPool Pool(2);
  std::atomic<bool> Done{false};
  std::thread Watchdog([&] {
    for (int I = 0; I < 600 && !Done.load(); ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (!Done.load()) {
      fprintf(stderr, "lost wakeup: external submission never ran\n");
      fflush(stderr);
      abort();
    }
  });
  for (int Round = 0; Round < 200; ++Round) {
    // Let the workers drain and park (spin phase is bounded, so a short
    // wait makes parking likely but not certain — both paths are valid).
    if (Round % 3 == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::atomic<int> Ran{0};
    std::vector<TaskRef<Task<void>>> Tasks;
    for (int I = 0; I < 4; ++I)
      Tasks.push_back(Pool.fork([&] { Ran.fetch_add(1); }));
    for (auto &T : Tasks)
      Pool.join(T);
    ASSERT_EQ(Ran.load(), 4) << "round " << Round;
  }
  Done.store(true);
  Watchdog.join();
}
