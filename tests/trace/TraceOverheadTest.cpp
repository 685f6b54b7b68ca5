//===- tests/trace/TraceOverheadTest.cpp ----------------------------------==//
//
// Zero-overhead-when-disabled guarantees: with tracing compiled in but
// disabled, the instrumented fast paths (Monitor::enter/exit, Parker
// park/unpark, trace::instant itself) perform no heap allocation and
// publish no events. The disabled guard is a single relaxed atomic load —
// asserted here as far as a test can: the guard atomic is lock-free, so
// the load compiles to a plain memory read, and the guard short-circuits
// before any timestamp or buffer work.
//
// The timing complement (cycle-level deltas against the untraced paths)
// lives in bench/bench_micro_substrates.cpp: BM_MonitorUncontended vs
// BM_MonitorUncontendedTracingOn, BM_ParkUnpark vs BM_ParkUnparkTracingOn
// and BM_TraceDisabledGuard.
//
//===----------------------------------------------------------------------===//

#include "runtime/Monitor.h"
#include "runtime/Park.h"
#include "trace/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

// Count every global allocation in the process so a test can assert a
// window performed none. The counter is relaxed-atomic (other threads may
// allocate concurrently in principle; in these single-threaded windows the
// count is exact).
namespace {
std::atomic<uint64_t> GAllocations{0};
} // namespace

void *operator new(std::size_t Size) {
  GAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *operator new[](std::size_t Size) {
  GAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

// The nothrow forms (std::stable_sort's temporary buffer uses them) must
// also come from malloc: the delete replacements below free whatever
// reaches them.
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  GAllocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}

void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  GAllocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

using namespace ren::trace;

namespace {

uint64_t allocations() {
  return GAllocations.load(std::memory_order_relaxed);
}

} // namespace

// The disabled guard must be one lock-free (i.e. plain-load) atomic; a
// mutex-backed atomic<bool> would make "one relaxed load" a lie.
static_assert(std::atomic<bool>::is_always_lock_free,
              "trace guard must compile to a single relaxed load");

#ifndef REN_TRACE_DISABLED
static_assert(kTraceCompiled,
              "tracing must be compiled in unless REN_TRACE_DISABLED");
#endif

TEST(TraceOverheadTest, DisabledMonitorFastPathDoesNotAllocate) {
  setEnabled(false);
  ren::runtime::Monitor M;
  // Warm up once: first use may lazily initialize thread-local metric
  // state, which is not the tracer's doing.
  {
    ren::runtime::Synchronized Sync(M);
  }
  uint64_t Before = allocations();
  for (int I = 0; I < 10000; ++I) {
    ren::runtime::Synchronized Sync(M);
  }
  EXPECT_EQ(allocations(), Before)
      << "uncontended Monitor enter/exit allocated with tracing disabled";
}

TEST(TraceOverheadTest, DisabledParkFastPathDoesNotAllocate) {
  setEnabled(false);
  ren::runtime::Parker P;
  P.unpark();
  P.park(); // warm-up round
  uint64_t Before = allocations();
  for (int I = 0; I < 10000; ++I) {
    P.unpark();
    P.park(); // permit available: consumes it without blocking
  }
  EXPECT_EQ(allocations(), Before)
      << "Parker unpark/park allocated with tracing disabled";
}

TEST(TraceOverheadTest, DisabledEmitSitesDoNotAllocateOrPublish) {
  setEnabled(false);
  static const char kName[] = "overhead.disabled";
  TraceRegistry::get().discardAll();
  uint64_t Before = allocations();
  for (int I = 0; I < 10000; ++I) {
    instant(EventKind::User, kName, 1, 2);
    span(EventKind::User, kName, 100, 10);
    mark(EventKind::User, Phase::Begin, kName);
    mark(EventKind::User, Phase::End, kName);
  }
  EXPECT_EQ(allocations(), Before)
      << "disabled trace::instant/span/mark allocated";
  std::vector<TraceEvent> Drained;
  TraceRegistry::get().drainAll(Drained);
  for (const TraceEvent &E : Drained)
    EXPECT_NE(E.Name, static_cast<const char *>(kName))
        << "disabled emit site published an event";
}

TEST(TraceOverheadTest, EnabledEmitDoesNotAllocateAfterRegistration) {
  // Requirement 2 of the design: *enabled* recording never allocates
  // either, once the thread's ring buffer exists — events land in
  // preallocated slots and laps overwrite.
  setEnabled(true);
  static const char kName[] = "overhead.enabled";
  instant(EventKind::User, kName); // registers this thread's buffer
  uint64_t Before = allocations();
  for (uint64_t I = 0; I < 3 * TraceBuffer::kCapacity; ++I)
    instant(EventKind::User, kName, I, 0);
  EXPECT_EQ(allocations(), Before)
      << "enabled push allocated (ring must be fixed-size)";
  setEnabled(false);
  TraceRegistry::get().discardAll();
}

TEST(TraceOverheadTest, EnableDisableIsImmediateOnTheEmittingThread) {
  if (!kTraceCompiled)
    GTEST_SKIP() << "tracing compiled out (REN_TRACE_DISABLED)";
  static const char kName[] = "overhead.toggle";
  TraceRegistry::get().discardAll();
  setEnabled(true);
  instant(EventKind::User, kName, 1, 0);
  setEnabled(false);
  instant(EventKind::User, kName, 2, 0);
  setEnabled(true);
  instant(EventKind::User, kName, 3, 0);
  setEnabled(false);
  std::vector<TraceEvent> Drained;
  TraceRegistry::get().drainAll(Drained);
  std::vector<uint64_t> Seen;
  for (const TraceEvent &E : Drained)
    if (E.Name == static_cast<const char *>(kName))
      Seen.push_back(E.A);
  ASSERT_EQ(Seen.size(), 2u);
  EXPECT_EQ(Seen[0], 1u);
  EXPECT_EQ(Seen[1], 3u);
}
