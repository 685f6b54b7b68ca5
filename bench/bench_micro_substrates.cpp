//===- bench/bench_micro_substrates.cpp -----------------------------------==//
//
// Google-benchmark microbenchmarks of the substrate libraries: the
// instrumented primitives, fork/join, STM, actors, futures, streams,
// netsim, kvstore and the cache simulator. These are not paper artifacts;
// they quantify the building blocks the workloads run on.
//
//===----------------------------------------------------------------------===//

#include "actors/ActorSystem.h"
#include "forkjoin/ForkJoinPool.h"
#include "futures/Future.h"
#include "kvstore/KvStore.h"
#include "memsim/MemSim.h"
#include "netsim/NetSim.h"
#include "rx/Observable.h"
#include "stm/Stm.h"
#include "streams/Stream.h"
#include "trace/Trace.h"
#include "trace/TraceSession.h"
#include "workloads/DataGen.h"

#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>

using namespace ren;

static void BM_MonitorUncontended(benchmark::State &State) {
  runtime::Monitor M;
  for (auto _ : State) {
    runtime::Synchronized Sync(M);
    benchmark::DoNotOptimize(&M);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_MonitorUncontended);

// Contended enter/exit throughput: every thread hammers one shared monitor
// with a tiny critical section. The 2- and 8-thread variants are the
// `check.sh --bench-smoke` monitor cases (BENCH_monitor.json) — they
// exercise the spin-then-park inflation path rather than the thin CAS.
static void BM_MonitorContendedEnterExit(benchmark::State &State) {
  static runtime::Monitor M;
  static long Shared = 0;
  for (auto _ : State) {
    runtime::Synchronized Sync(M);
    ++Shared;
    benchmark::DoNotOptimize(Shared);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_MonitorContendedEnterExit)
    ->Threads(2)
    ->Threads(8)
    ->UseRealTime();

// Same-run std::mutex twins of the two cells above. `check.sh
// --bench-smoke` reports each monitor cell as a ratio against its twin
// from the same invocation, so the comparison carries across hosts.
static void BM_StdMutexUncontended(benchmark::State &State) {
  std::mutex M;
  for (auto _ : State) {
    std::lock_guard<std::mutex> Lock(M);
    benchmark::DoNotOptimize(&M);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_StdMutexUncontended);

static void BM_StdMutexContendedEnterExit(benchmark::State &State) {
  static std::mutex M;
  static long Shared = 0;
  for (auto _ : State) {
    std::lock_guard<std::mutex> Lock(M);
    ++Shared;
    benchmark::DoNotOptimize(Shared);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_StdMutexContendedEnterExit)
    ->Threads(2)
    ->Threads(8)
    ->UseRealTime();

// Wait/notify ping: each iteration hands a turn token to a partner thread
// via notifyOne and blocks in wait until it is handed back — two guarded
// block round trips per iteration, the latency floor of every
// producer/consumer handshake built on the monitor.
static void BM_MonitorWaitNotifyPing(benchmark::State &State) {
  runtime::Monitor M;
  int Turn = 0; // 0 = main's turn, 1 = partner's turn
  bool Done = false;
  std::thread Partner([&] {
    runtime::Synchronized Sync(M);
    for (;;) {
      while (Turn != 1 && !Done)
        M.wait();
      if (Done)
        return;
      Turn = 0;
      M.notifyOne();
    }
  });
  for (auto _ : State) {
    runtime::Synchronized Sync(M);
    Turn = 1;
    M.notifyOne();
    while (Turn != 0)
      M.wait();
  }
  {
    runtime::Synchronized Sync(M);
    Done = true;
    M.notifyAll();
  }
  Partner.join();
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_MonitorWaitNotifyPing)->UseRealTime();

static void BM_AtomicCas(benchmark::State &State) {
  runtime::Atomic<long> A(0);
  long V = 0;
  for (auto _ : State) {
    A.compareAndSwap(V, V + 1);
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_AtomicCas);

static void BM_SharedRandomNextDouble(benchmark::State &State) {
  runtime::SharedRandom Rng(42);
  for (auto _ : State)
    benchmark::DoNotOptimize(Rng.nextDouble());
}
BENCHMARK(BM_SharedRandomNextDouble);

static void BM_ParkUnpark(benchmark::State &State) {
  runtime::Parker P;
  for (auto _ : State) {
    P.unpark();
    P.park();
  }
}
BENCHMARK(BM_ParkUnpark);

// Tracing overhead probes: the *TracingOn variants run with event
// recording enabled (events land in the ring and are periodically
// discarded); compare against BM_MonitorUncontended / BM_ParkUnpark above,
// whose guard is the disabled path (one relaxed load). The deltas are the
// ren::trace overhead model documented in DESIGN.md.

static void BM_MonitorUncontendedTracingOn(benchmark::State &State) {
  trace::setEnabled(true);
  runtime::Monitor M;
  for (auto _ : State) {
    runtime::Synchronized Sync(M);
    benchmark::DoNotOptimize(&M);
  }
  trace::setEnabled(false);
  trace::TraceRegistry::get().discardAll();
}
BENCHMARK(BM_MonitorUncontendedTracingOn);

static void BM_ParkUnparkTracingOn(benchmark::State &State) {
  trace::setEnabled(true);
  runtime::Parker P;
  for (auto _ : State) {
    P.unpark();
    P.park();
  }
  trace::setEnabled(false);
  trace::TraceRegistry::get().discardAll();
}
BENCHMARK(BM_ParkUnparkTracingOn);

static void BM_TraceInstantEvent(benchmark::State &State) {
  trace::setEnabled(true);
  for (auto _ : State)
    trace::instant(trace::EventKind::User, "bench.instant", 1, 2);
  trace::setEnabled(false);
  trace::TraceRegistry::get().discardAll();
}
BENCHMARK(BM_TraceInstantEvent);

static void BM_TraceDisabledGuard(benchmark::State &State) {
  // The cost every instrumentation site pays when tracing is off: one
  // relaxed load and a never-taken branch.
  for (auto _ : State)
    trace::instant(trace::EventKind::User, "bench.never");
}
BENCHMARK(BM_TraceDisabledGuard);

// Steady-state per-element handle dispatch: the monomorphic fast path a
// pipeline interpreter uses once the handle's bootstrap-then-simplify
// transition has run (invoke() additionally pays the transition check on
// every call — that polymorphic cost is exactly what simplification
// removes).
static void BM_MethodHandleInvoke(benchmark::State &State) {
  auto H = runtime::bindLambda<long(long)>([](long X) { return X * 31; });
  H.simplify();
  long V = 1;
  for (auto _ : State)
    benchmark::DoNotOptimize(V = H.directInvoke(V));
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_MethodHandleInvoke);

static void BM_ForkJoinParallelFor(benchmark::State &State) {
  forkjoin::ForkJoinPool Pool(2);
  std::vector<long> Data(static_cast<size_t>(State.range(0)), 1);
  for (auto _ : State) {
    std::atomic<long> Sum{0};
    Pool.parallelFor(0, Data.size(), 256, [&](size_t Lo, size_t Hi) {
      long Local = 0;
      for (size_t I = Lo; I < Hi; ++I)
        Local += Data[I];
      Sum.fetch_add(Local);
    });
    benchmark::DoNotOptimize(Sum.load());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Data.size()));
}
BENCHMARK(BM_ForkJoinParallelFor)->Arg(1 << 10)->Arg(1 << 14)->UseRealTime();

// Fork-join ping: one external fork + join per iteration. Measures the
// submit -> wakeup -> run -> completion-signal round trip, the latency
// floor under every future/actor dispatch.
static void BM_ForkJoinPing(benchmark::State &State) {
  forkjoin::ForkJoinPool Pool(2);
  for (auto _ : State) {
    auto T = Pool.fork([] { return 1; });
    Pool.join(T);
    benchmark::DoNotOptimize(T->result());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ForkJoinPing)->UseRealTime();

namespace {

long fjFib(forkjoin::ForkJoinPool &Pool, int N) {
  if (N < 2)
    return N;
  auto Right = Pool.fork([&Pool, N] { return fjFib(Pool, N - 2); });
  long Left = fjFib(Pool, N - 1);
  Pool.join(Right);
  return Left + Right->result();
}

// Fork calls performed by fjFib(N): one per non-leaf recursive call.
int64_t fjFibForks(int N) {
  if (N < 2)
    return 0;
  return fjFibForks(N - 1) + fjFibForks(N - 2) + 1;
}

} // namespace

// Steal-heavy grain-1 fork/join: recursive fib with a task per split. The
// pure scheduler stressor — task allocation, deque push/pop, steals and
// helping joins dominate; the leaf work is a single addition.
static void BM_ForkJoinStealHeavyFib(benchmark::State &State) {
  forkjoin::ForkJoinPool Pool(4);
  const int N = static_cast<int>(State.range(0));
  for (auto _ : State) {
    long R = Pool.invoke([&Pool, N] { return fjFib(Pool, N); });
    benchmark::DoNotOptimize(R);
  }
  State.SetItemsProcessed(State.iterations() * (fjFibForks(N) + 1));
}
BENCHMARK(BM_ForkJoinStealHeavyFib)->Arg(16)->UseRealTime();

static void BM_StmIncrement(benchmark::State &State) {
  stm::TVar<long> Counter(0);
  for (auto _ : State)
    stm::atomically([&](stm::Transaction &Txn) {
      Counter.set(Txn, Counter.get(Txn) + 1);
    });
}
BENCHMARK(BM_StmIncrement);

static void BM_StmReadOnlyScan(benchmark::State &State) {
  std::vector<std::unique_ptr<stm::TVar<long>>> Vars;
  for (int I = 0; I < 32; ++I)
    Vars.push_back(std::make_unique<stm::TVar<long>>(I));
  for (auto _ : State) {
    long Sum = stm::atomically([&](stm::Transaction &Txn) {
      long S = 0;
      for (auto &V : Vars)
        S += V->get(Txn);
      return S;
    });
    benchmark::DoNotOptimize(Sum);
  }
}
BENCHMARK(BM_StmReadOnlyScan);

static void BM_ActorPingPong(benchmark::State &State) {
  struct Echo : actors::Actor<int> {
    explicit Echo(std::atomic<long> &N) : N(N) {}
    void receive(int M) override { N.fetch_add(M); }
    std::atomic<long> &N;
  };
  std::atomic<long> N{0};
  actors::ActorSystem Sys(2);
  auto Ref = Sys.spawn<Echo>(N);
  for (auto _ : State) {
    Ref.tell(1);
  }
  Sys.awaitQuiescence();
  benchmark::DoNotOptimize(N.load());
}
BENCHMARK(BM_ActorPingPong);

static void BM_FutureMapChain(benchmark::State &State) {
  for (auto _ : State) {
    auto F = futures::Future<int>::value(1)
                 .map([](const int &X) { return X + 1; })
                 .map([](const int &X) { return X * 2; });
    benchmark::DoNotOptimize(F.get());
  }
}
BENCHMARK(BM_FutureMapChain);

// The `check.sh --bench-smoke` streams/dispatch cases (BENCH_streams.json):
// a serial map/filter/reduce pipeline, a scrabble-style parallel pipeline
// (filter + map + groupBy over a word dictionary on a 4-worker pool), and
// the raw method-handle dispatch floor every pipeline element pays.

static void BM_StreamSerialPipeline(benchmark::State &State) {
  std::vector<int> Input(static_cast<size_t>(State.range(0)));
  std::iota(Input.begin(), Input.end(), 0);
  for (auto _ : State) {
    auto Sum = streams::Stream<int>::of(Input)
                   .map([](const int &X) { return X * 3 + 1; })
                   .filter([](const int &X) { return X % 2 == 0; })
                   .map([](const int &X) { return X - 1; })
                   .template reduce<long>(
                       0, [](long A, const int &X) { return A + X; },
                       [](long A, long B) { return A + B; });
    benchmark::DoNotOptimize(Sum);
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Input.size()));
}
BENCHMARK(BM_StreamSerialPipeline)->Arg(1 << 14);

namespace {

int benchLetterScore(char C) {
  static const int Scores[26] = {1, 3, 3, 2,  1, 4, 2, 4, 1, 8, 5, 1, 3,
                                 1, 1, 3, 10, 1, 1, 1, 1, 4, 4, 8, 4, 10};
  return Scores[C - 'a'];
}

std::array<int, 26> benchHistogram(const std::string &Word) {
  std::array<int, 26> H = {};
  for (char C : Word)
    ++H[C - 'a'];
  return H;
}

} // namespace

static void BM_StreamParallelScrabble(benchmark::State &State) {
  forkjoin::ForkJoinPool Pool(4);
  std::vector<std::string> Dictionary = workloads::makeDictionary(8000, 0x5C7A);
  std::array<int, 26> Available = {};
  const std::string Rack = "etaoinshrdlucmfwypvbgkjqxzetaoinshrdluetaoinshr";
  for (char C : Rack)
    ++Available[C - 'a'];
  for (auto _ : State) {
    auto Scored =
        streams::Stream<std::string>::of(Dictionary)
            .parallel(Pool)
            .filter([&Available](const std::string &W) {
              std::array<int, 26> H = benchHistogram(W);
              for (int I = 0; I < 26; ++I)
                if (H[I] > Available[I])
                  return false;
              return true;
            })
            .map([](const std::string &W) {
              int S = 0;
              for (char C : W)
                S += benchLetterScore(C);
              return std::make_pair(S, W.size());
            });
    auto Groups = Scored.groupBy(
        [](const std::pair<int, size_t> &P) { return P.first; });
    benchmark::DoNotOptimize(Groups.size());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Dictionary.size()));
}
BENCHMARK(BM_StreamParallelScrabble)->UseRealTime();

static void BM_StreamPipeline(benchmark::State &State) {
  std::vector<int> Input(static_cast<size_t>(State.range(0)));
  std::iota(Input.begin(), Input.end(), 0);
  for (auto _ : State) {
    auto Sum = streams::Stream<int>::of(Input)
                   .map([](const int &X) { return X * 3; })
                   .filter([](const int &X) { return X % 2 == 0; })
                   .template reduce<long>(
                       0, [](long A, const int &X) { return A + X; },
                       [](long A, long B) { return A + B; });
    benchmark::DoNotOptimize(Sum);
  }
}
BENCHMARK(BM_StreamPipeline)->Arg(1 << 10);

static void BM_RxPipeline(benchmark::State &State) {
  for (auto _ : State) {
    auto Last = rx::Observable<int>::range(0, 512)
                    .map([](const int &X) { return X * 2; })
                    .filter([](const int &X) { return X % 3 == 0; })
                    .reduce(0, [](int A, const int &X) { return A + X; })
                    .blockingLast();
    benchmark::DoNotOptimize(Last);
  }
}
BENCHMARK(BM_RxPipeline);

static void BM_NetsimRpc(benchmark::State &State) {
  netsim::Server Srv("echo",
                     [](const netsim::Bytes &B) { return B; }, 1);
  auto Conn = Srv.connect();
  netsim::Bytes Req = {1, 2, 3, 4};
  for (auto _ : State)
    benchmark::DoNotOptimize(Conn->call(Req).get());
  Conn->close();
}
BENCHMARK(BM_NetsimRpc);

static void BM_KvStorePut(benchmark::State &State) {
  kvstore::Table T(64);
  uint64_t K = 0;
  for (auto _ : State)
    T.put(K++ & 0xFFFF, "value");
}
BENCHMARK(BM_KvStorePut);

static void BM_KvStoreTransaction(benchmark::State &State) {
  kvstore::Database Db;
  Db.table("t").put(1, "a");
  Db.table("t").put(2, "b");
  for (auto _ : State) {
    auto R = Db.transact({
        {kvstore::Database::Op::Kind::Get, "t", 1, ""},
        {kvstore::Database::Op::Kind::Put, "t", 2, "c"},
    });
    benchmark::DoNotOptimize(R.Reads.size());
  }
}
BENCHMARK(BM_KvStoreTransaction);

static void BM_CacheSimAccess(benchmark::State &State) {
  memsim::MemorySystem MS;
  uint64_t Addr = 0;
  for (auto _ : State) {
    MS.access(Addr, 8, memsim::AccessKind::Data);
    Addr = (Addr + 4096 + 64) & 0xFFFFF;
  }
  benchmark::DoNotOptimize(MS.totalMisses());
}
BENCHMARK(BM_CacheSimAccess);

BENCHMARK_MAIN();
