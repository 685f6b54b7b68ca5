//===- netsim/LoadGen.cpp -------------------------------------------------==//

#include "netsim/LoadGen.h"

#include "runtime/Monitor.h"
#include "support/Clock.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

using namespace ren;
using namespace ren::netsim;

//===----------------------------------------------------------------------===//
// LatencyHistogram
//===----------------------------------------------------------------------===//

unsigned LatencyHistogram::bucketIndex(uint64_t V) {
  if (V < 32)
    return static_cast<unsigned>(V);
  unsigned Bits = 64 - static_cast<unsigned>(__builtin_clzll(V));
  unsigned Exp = Bits - 6;
  unsigned Sub = static_cast<unsigned>(V >> Exp); // in [32, 64)
  return Exp * 32 + Sub;
}

uint64_t LatencyHistogram::bucketUpperBound(unsigned Index) {
  assert(Index < kBuckets && "bucket out of range");
  if (Index < 32)
    return Index;
  unsigned Exp = Index / 32 - 1;
  uint64_t Sub = Index - static_cast<uint64_t>(Exp) * 32; // in [32, 64)
  return ((Sub + 1) << Exp) - 1;
}

void LatencyHistogram::record(uint64_t Nanos) {
  Buckets[bucketIndex(Nanos)].fetch_add(1, std::memory_order_relaxed);
  uint64_t Seen = Max.load(std::memory_order_relaxed);
  while (Seen < Nanos &&
         !Max.compare_exchange_weak(Seen, Nanos, std::memory_order_relaxed))
    ;
}

uint64_t LatencyHistogram::count() const {
  uint64_t Total = 0;
  for (const auto &B : Buckets)
    Total += B.load(std::memory_order_relaxed);
  return Total;
}

uint64_t LatencyHistogram::valueAtQuantile(double Q) const {
  uint64_t Total = count();
  if (Total == 0)
    return 0;
  if (Q >= 1.0)
    return maxValue();
  if (Q < 0.0)
    Q = 0.0;
  // 1-based rank of the sample at quantile Q.
  uint64_t Target = static_cast<uint64_t>(Q * static_cast<double>(Total)) + 1;
  Target = std::min(Target, Total);
  uint64_t Cum = 0;
  for (unsigned I = 0; I < kBuckets; ++I) {
    Cum += Buckets[I].load(std::memory_order_relaxed);
    if (Cum >= Target)
      return std::min(bucketUpperBound(I), maxValue());
  }
  return maxValue();
}

void LatencyHistogram::reset() {
  for (auto &B : Buckets)
    B.store(0, std::memory_order_relaxed);
  Max.store(0, std::memory_order_relaxed);
}

void LatencyHistogram::copyFrom(const LatencyHistogram &Other) {
  for (unsigned I = 0; I < kBuckets; ++I)
    Buckets[I].store(Other.Buckets[I].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  Max.store(Other.Max.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// LoadGen
//===----------------------------------------------------------------------===//

namespace {

/// State shared between the generator thread and the completion callbacks
/// running on reactor shards. Heap-held via shared_ptr so a callback that
/// fires as run() is unwinding never dangles.
struct RunState {
  runtime::Monitor Window;
  std::atomic<uint64_t> InFlight{0};
  std::atomic<uint64_t> Completed{0};
  std::atomic<uint64_t> Failed{0};
  std::atomic<uint64_t> Valid{0};
  LatencyHistogram Hist;
  bool KeepSamples = false;
  std::vector<LoadSample> Samples;
  std::function<bool(const Bytes &)> Validate;
};

Bytes defaultRequest(uint64_t Seq, size_t PayloadBytes) {
  Bytes Req(std::max<size_t>(PayloadBytes, 8), 0);
  for (int Shift = 0; Shift < 64; Shift += 8)
    Req[static_cast<size_t>(Shift / 8)] =
        static_cast<uint8_t>(Seq >> Shift);
  return Req;
}

} // namespace

// Out-of-line shared state handle: declared here rather than in the header
// so LoadGen.h stays free of the RunState type.
namespace {
std::mutex ActiveLock;
std::weak_ptr<RunState> *activeSlot(const LoadGen *G) {
  // One slot per generator address; generators are few and short-lived, a
  // tiny leaky map keeps the header clean.
  static std::mutex MapLock;
  static std::unordered_map<const LoadGen *, std::weak_ptr<RunState>> Map;
  std::lock_guard<std::mutex> Guard(MapLock);
  return &Map[G];
}
} // namespace

LoadGen::LoadGen(Server &Target, LoadGenOptions Opts)
    : Target(Target), Opts(std::move(Opts)) {
  assert(this->Opts.Connections > 0 && "need at least one connection");
}

void LoadGen::stop() {
  StopFlag.store(true, std::memory_order_release);
  std::shared_ptr<RunState> S;
  {
    std::lock_guard<std::mutex> Guard(ActiveLock);
    S = activeSlot(this)->lock();
  }
  if (S) {
    runtime::Synchronized Sync(S->Window);
    S->Window.notifyAll();
  }
}

LoadReport LoadGen::run() {
  auto S = std::make_shared<RunState>();
  S->KeepSamples = Opts.KeepSamples;
  S->Validate = Opts.Validate;
  if (S->KeepSamples)
    S->Samples.resize(Opts.Requests);
  {
    std::lock_guard<std::mutex> Guard(ActiveLock);
    *activeSlot(this) = S;
  }

  std::vector<std::unique_ptr<ClientConnection>> Conns;
  Conns.reserve(Opts.Connections);
  for (unsigned I = 0; I < Opts.Connections; ++I)
    Conns.push_back(Target.connect());

  const double IntervalNs =
      Opts.RatePerSec > 0.0 ? 1e9 / Opts.RatePerSec : 0.0;
  const uint64_t Start = wallNanos();
  uint64_t SentCount = 0;
  uint64_t MaxSendDelay = 0;

  for (uint64_t Seq = 0; Seq < Opts.Requests; ++Seq) {
    if (StopFlag.load(std::memory_order_acquire))
      break;

    // The intended send time is fixed by the open-loop schedule alone.
    uint64_t Scheduled =
        IntervalNs > 0.0
            ? Start + static_cast<uint64_t>(
                          static_cast<double>(Seq) * IntervalNs)
            : 0;

    // Pace to the schedule (sleep coarse, spin fine).
    if (IntervalNs > 0.0) {
      for (;;) {
        uint64_t Now = wallNanos();
        if (Now >= Scheduled)
          break;
        uint64_t Wait = Scheduled - Now;
        if (Wait > 200000)
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(Wait - 100000));
        else
          std::this_thread::yield();
      }
    }

    // In-flight window. Crucially this wait happens *after* Scheduled is
    // fixed: time spent stalled here (a backed-up server) lands in the
    // stalled requests' recorded latencies.
    if (Opts.MaxInFlight > 0) {
      runtime::Synchronized Sync(S->Window);
      S->Window.waitUntil([&] {
        return S->InFlight.load(std::memory_order_acquire) <
                   Opts.MaxInFlight ||
               StopFlag.load(std::memory_order_acquire);
      });
      if (StopFlag.load(std::memory_order_acquire))
        break;
    }

    uint64_t Sent = wallNanos();
    if (IntervalNs == 0.0)
      Scheduled = Sent; // unpaced: intended == actual
    MaxSendDelay = std::max(MaxSendDelay, Sent - Scheduled);

    Bytes Req = Opts.MakeRequest ? Opts.MakeRequest(Seq)
                                 : defaultRequest(Seq, Opts.PayloadBytes);

    S->InFlight.fetch_add(1, std::memory_order_relaxed);
    futures::Future<Bytes> Fut =
        Conns[static_cast<size_t>(Seq % Conns.size())]->call(
            std::move(Req), Opts.DeadlineNanos);
    ++SentCount;

    Fut.onComplete(
        futures::InlineExecutor::get(),
        [S, Seq, Scheduled, Sent](const futures::Try<Bytes> &R) {
          uint64_t Done = wallNanos();
          // Intended-time accounting: latency runs from the *scheduled*
          // send, so queueing delay behind a stall is never omitted.
          S->Hist.record(Done - Scheduled);
          if (R.isSuccess()) {
            S->Completed.fetch_add(1, std::memory_order_relaxed);
            if (!S->Validate || S->Validate(R.value()))
              S->Valid.fetch_add(1, std::memory_order_relaxed);
          } else {
            S->Failed.fetch_add(1, std::memory_order_relaxed);
          }
          if (S->KeepSamples)
            S->Samples[Seq] = {Scheduled, Sent, Done, R.isSuccess()};
          S->InFlight.fetch_sub(1, std::memory_order_release);
          runtime::Synchronized Sync(S->Window);
          S->Window.notifyAll();
        });
  }

  // A stopped run flushes by closing: drain-before-close resolves every
  // already-sent request (response or failure) before close() returns.
  if (StopFlag.load(std::memory_order_acquire))
    for (auto &C : Conns)
      C->close();

  {
    runtime::Synchronized Sync(S->Window);
    S->Window.waitUntil(
        [&] { return S->InFlight.load(std::memory_order_acquire) == 0; });
  }
  uint64_t End = wallNanos();

  for (auto &C : Conns)
    C->close();
  Conns.clear();

  LoadReport Report;
  Report.Service = Target.name();
  Report.Sent = SentCount;
  Report.Completed = S->Completed.load(std::memory_order_relaxed);
  Report.Failed = S->Failed.load(std::memory_order_relaxed);
  Report.Valid = S->Valid.load(std::memory_order_relaxed);
  Report.ElapsedNanos = End - Start;
  Report.Histogram = S->Hist;
  Report.P50 = S->Hist.valueAtQuantile(0.50);
  Report.P99 = S->Hist.valueAtQuantile(0.99);
  Report.P999 = S->Hist.valueAtQuantile(0.999);
  Report.MaxNanos = S->Hist.maxValue();
  Report.MaxSendDelayNanos = MaxSendDelay;
  if (S->KeepSamples) {
    // Drop slots never sent (stopped run): an unsent slot has DoneNs == 0.
    S->Samples.erase(std::remove_if(S->Samples.begin(), S->Samples.end(),
                                    [](const LoadSample &Smp) {
                                      return Smp.DoneNs == 0;
                                    }),
                     S->Samples.end());
    Report.Samples = std::move(S->Samples);
  }

  {
    std::lock_guard<std::mutex> Guard(ActiveLock);
    activeSlot(this)->reset();
  }
  publishLoadReport(Report);
  return Report;
}

//===----------------------------------------------------------------------===//
// Process-global report slot
//===----------------------------------------------------------------------===//

namespace {
std::mutex ReportLock;
std::atomic<uint64_t> ReportVersion{0};

LoadReport &reportSlot() {
  static LoadReport Slot;
  return Slot;
}
} // namespace

void ren::netsim::publishLoadReport(const LoadReport &R) {
  {
    std::lock_guard<std::mutex> Guard(ReportLock);
    LoadReport Copy = R;
    Copy.Samples.clear();
    reportSlot() = std::move(Copy);
  }
  ReportVersion.fetch_add(1, std::memory_order_release);
}

uint64_t ren::netsim::loadReportVersion() {
  return ReportVersion.load(std::memory_order_acquire);
}

LoadReport ren::netsim::lastLoadReport() {
  std::lock_guard<std::mutex> Guard(ReportLock);
  return reportSlot();
}
