//===- harness/Plugins.h - Stock measurement plugins ------------*- C++ -*-===//
//
// Part of Renaissance-C++, a reproduction of the PLDI'19 Renaissance paper.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ready-made plugins for the harness's §2.2 plugin interface. The paper's
/// conclusion proposes the suite for GC and profiler studies; the
/// AllocationRatePlugin is the natural first tool for that direction: it
/// tracks per-iteration object/array allocation against wall time, the
/// quantity GC research starts from.
///
//===----------------------------------------------------------------------===//

#ifndef REN_HARNESS_PLUGINS_H
#define REN_HARNESS_PLUGINS_H

#include "harness/Harness.h"
#include "netsim/LoadGen.h"
#include "runtime/Heap.h"
#include "trace/Trace.h"

#include <string>
#include <vector>

namespace ren {
namespace harness {

/// Records per-iteration allocation counts and rates.
class AllocationRatePlugin : public Plugin {
public:
  struct IterationAllocation {
    std::string Benchmark;
    unsigned Iteration = 0;
    bool Warmup = false;
    uint64_t Objects = 0;
    uint64_t Arrays = 0;
    uint64_t Nanos = 0;

    /// Objects per millisecond of operation time.
    double objectsPerMs() const {
      return Nanos == 0 ? 0.0
                        : static_cast<double>(Objects) /
                              (static_cast<double>(Nanos) / 1e6);
    }
  };

  void beforeIteration(const BenchmarkInfo &, unsigned, bool) override {
    Before = metrics::MetricsRegistry::get().snapshot();
  }

  void afterIteration(const BenchmarkInfo &Info, unsigned Index,
                      bool Warmup, uint64_t Nanos) override {
    metrics::MetricSnapshot After =
        metrics::MetricsRegistry::get().snapshot();
    metrics::MetricSnapshot Delta =
        metrics::MetricSnapshot::delta(Before, After);
    IterationAllocation Rec;
    Rec.Benchmark = Info.Name;
    Rec.Iteration = Index;
    Rec.Warmup = Warmup;
    Rec.Objects = Delta.get(metrics::Metric::Object);
    Rec.Arrays = Delta.get(metrics::Metric::Array);
    Rec.Nanos = Nanos;
    Records.push_back(std::move(Rec));
  }

  const std::vector<IterationAllocation> &records() const {
    return Records;
  }

  /// Mean steady-state allocation rate (objects/ms) across all recorded
  /// benchmarks (0 when nothing was recorded).
  double meanSteadyObjectsPerMs() const {
    double Sum = 0.0;
    unsigned Count = 0;
    for (const IterationAllocation &R : Records) {
      if (R.Warmup)
        continue;
      Sum += R.objectsPerMs();
      ++Count;
    }
    return Count == 0 ? 0.0 : Sum / Count;
  }

private:
  metrics::MetricSnapshot Before;
  std::vector<IterationAllocation> Records;
};

/// Emits harness lifecycle events into the tracer and keeps a local record
/// of per-iteration spans.
///
/// Each benchmark run becomes a Begin/End "run" pair named after the
/// benchmark (interned once per run), and every iteration a Begin/End
/// "iteration" pair with the index and warmup flag as args — all on the
/// harness thread, so the pairs nest and balance per tid, which is what
/// chrome://tracing requires to draw them as stacked spans. The recorded
/// spans use the tracer's clock (the same wallNanos the Runner times
/// iterations with), so Span durations bound IterationRecord::Nanos from
/// above: the span additionally covers only the Runner's own bookkeeping
/// between the plugin hooks and the timed region.
class TracePlugin : public Plugin {
public:
  struct IterationSpan {
    std::string Benchmark;
    unsigned Index = 0;
    bool Warmup = false;
    uint64_t BeginNs = 0;
    uint64_t EndNs = 0;

    uint64_t durationNanos() const { return EndNs - BeginNs; }
  };

  void beforeRun(const BenchmarkInfo &Info) override {
    RunName = trace::internName(Info.Name);
    trace::mark(trace::EventKind::Run, trace::Phase::Begin, RunName);
  }

  void beforeIteration(const BenchmarkInfo &Info, unsigned Index,
                       bool Warmup) override {
    Open.Benchmark = Info.Name;
    Open.Index = Index;
    Open.Warmup = Warmup;
    Open.BeginNs = trace::nowNanos();
    trace::mark(trace::EventKind::Iteration, trace::Phase::Begin,
                "iteration", Index, Warmup);
  }

  void afterIteration(const BenchmarkInfo &, unsigned Index, bool Warmup,
                      uint64_t) override {
    trace::mark(trace::EventKind::Iteration, trace::Phase::End, "iteration",
                Index, Warmup);
    Open.EndNs = trace::nowNanos();
    Spans.push_back(Open);
  }

  void afterRun(const BenchmarkInfo &) override {
    trace::mark(trace::EventKind::Run, trace::Phase::End, RunName);
    RunName = "run";
  }

  /// Per-iteration spans recorded so far (kept even when tracing is off).
  const std::vector<IterationSpan> &spans() const { return Spans; }

private:
  const char *RunName = "run";
  IterationSpan Open;
  std::vector<IterationSpan> Spans;
};

/// Attaches open-loop load-generator results to benchmark iterations.
///
/// A network benchmark that drives a netsim LoadGen publishes its report
/// process-globally (publishLoadReport — LoadGen::run does it
/// automatically). This plugin snapshots the publication counter around
/// each iteration and records one entry per iteration that published,
/// surfacing coordinated-omission-safe p50/p99/p999 latency and sustained
/// requests/sec alongside the harness's own timings — no plumbing from
/// the benchmark body required.
class NetLatencyPlugin : public Plugin {
public:
  struct IterationLoad {
    std::string Benchmark;
    unsigned Iteration = 0;
    bool Warmup = false;
    std::string Service;
    uint64_t Completed = 0;
    uint64_t Failed = 0;
    uint64_t P50Nanos = 0;
    uint64_t P99Nanos = 0;
    uint64_t P999Nanos = 0;
    uint64_t MaxNanos = 0;
    double SustainedRps = 0.0;
  };

  void beforeIteration(const BenchmarkInfo &, unsigned, bool) override {
    VersionBefore = netsim::loadReportVersion();
  }

  void afterIteration(const BenchmarkInfo &Info, unsigned Index,
                      bool Warmup, uint64_t) override {
    if (netsim::loadReportVersion() == VersionBefore)
      return; // iteration ran no load generator
    netsim::LoadReport R = netsim::lastLoadReport();
    IterationLoad Rec;
    Rec.Benchmark = Info.Name;
    Rec.Iteration = Index;
    Rec.Warmup = Warmup;
    Rec.Service = R.Service;
    Rec.Completed = R.Completed;
    Rec.Failed = R.Failed;
    Rec.P50Nanos = R.P50;
    Rec.P99Nanos = R.P99;
    Rec.P999Nanos = R.P999;
    Rec.MaxNanos = R.MaxNanos;
    Rec.SustainedRps = R.sustainedRps();
    Records.push_back(std::move(Rec));
  }

  const std::vector<IterationLoad> &records() const { return Records; }

  /// Mean steady-state p99 latency in nanoseconds across recorded
  /// iterations (0 when nothing was recorded).
  double meanSteadyP99Nanos() const {
    double Sum = 0.0;
    unsigned Count = 0;
    for (const IterationLoad &R : Records) {
      if (R.Warmup)
        continue;
      Sum += static_cast<double>(R.P99Nanos);
      ++Count;
    }
    return Count == 0 ? 0.0 : Sum / Count;
  }

private:
  uint64_t VersionBefore = 0;
  std::vector<IterationLoad> Records;
};

/// Records per-iteration managed-heap behaviour: allocation volume, slab
/// traffic, and reclaim ("GC") pauses from the runtime/Heap.h substrate.
///
/// The paper's conclusion proposes the suite for GC studies; this plugin
/// closes the loop on the managed-heap rework by exposing the substrate's
/// pause/occupancy counters through the §2.2 plugin interface, the same
/// way AllocationRatePlugin exposes the object counts. With ForceReclaim
/// set, the plugin drives a reclaim pass after every iteration (outside
/// the timed region) so deferred work — orphaned slabs — is attributed
/// to the iteration that produced it, like a forced young-collection
/// between harness iterations.
class GcPausePlugin : public Plugin {
public:
  struct IterationHeap {
    std::string Benchmark;
    unsigned Iteration = 0;
    bool Warmup = false;
    uint64_t Nanos = 0;

    /// Interval delta (HeapStats::delta semantics: counters subtract,
    /// SlabsInUse/Epoch carry the end-of-iteration value).
    runtime::heap::HeapStats Delta;

    /// Live bytes at the iteration boundary (after the optional forced
    /// reclaim), not an interval quantity.
    uint64_t LiveBytesAfter = 0;
    double OccupancyAfter = 0.0;

    /// Allocated block bytes per millisecond of operation time.
    double bytesPerMs() const {
      return Nanos == 0 ? 0.0
                        : static_cast<double>(Delta.BytesAllocated) /
                              (static_cast<double>(Nanos) / 1e6);
    }
  };

  explicit GcPausePlugin(bool ForceReclaim = false)
      : ForceReclaim(ForceReclaim) {}

  void beforeIteration(const BenchmarkInfo &, unsigned, bool) override {
    Before = runtime::heap::stats();
  }

  void afterIteration(const BenchmarkInfo &Info, unsigned Index,
                      bool Warmup, uint64_t Nanos) override {
    if (ForceReclaim)
      runtime::heap::reclaim();
    runtime::heap::HeapStats After = runtime::heap::stats();
    IterationHeap Rec;
    Rec.Benchmark = Info.Name;
    Rec.Iteration = Index;
    Rec.Warmup = Warmup;
    Rec.Nanos = Nanos;
    Rec.Delta = runtime::heap::HeapStats::delta(Before, After);
    Rec.LiveBytesAfter = After.bytesLive();
    Rec.OccupancyAfter = After.slabOccupancyPercent();
    Records.push_back(std::move(Rec));
  }

  const std::vector<IterationHeap> &records() const { return Records; }

  /// Total reclaim-pause nanoseconds across recorded steady-state
  /// iterations (the "GC time" a pause study starts from).
  uint64_t steadyReclaimNanos() const {
    uint64_t Total = 0;
    for (const IterationHeap &R : Records)
      if (!R.Warmup)
        Total += R.Delta.ReclaimTotalNanos;
    return Total;
  }

private:
  bool ForceReclaim;
  runtime::heap::HeapStats Before;
  std::vector<IterationHeap> Records;
};

} // namespace harness
} // namespace ren

#endif // REN_HARNESS_PLUGINS_H
