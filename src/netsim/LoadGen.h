//===- netsim/LoadGen.h - Open-loop load generator --------------*- C++ -*-===//
//
// Part of Renaissance-C++, a reproduction of the PLDI'19 Renaissance paper.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An open-loop, coordinated-omission-safe load generator for the netsim
/// reactor, plus the log-linear latency histogram it records into.
///
/// Open-loop: every request has a *scheduled* send time fixed up front
/// (arrival index / arrival rate), independent of how fast the server
/// answers. Coordinated-omission safety follows from intended-time
/// accounting: recorded latency is completion minus the **scheduled**
/// time, never minus the actual send time — if the generator falls behind
/// (server stall backing up the in-flight window), the queueing delay the
/// late requests suffered is part of their latency, exactly as a real
/// user would experience it. A closed-loop harness that measures service
/// time only would silently drop that wait; the unit test in
/// tests/netsim/LoadGenTest.cpp pins the difference.
///
/// Reports surface p50/p99/p999/max latency and sustained requests/sec;
/// publishLoadReport exposes the last report process-globally so the
/// harness's NetLatencyPlugin can attach the numbers to benchmark
/// iterations without plumbing.
///
//===----------------------------------------------------------------------===//

#ifndef REN_NETSIM_LOADGEN_H
#define REN_NETSIM_LOADGEN_H

#include "netsim/NetSim.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ren {
namespace netsim {

/// A fixed-footprint log-linear latency histogram (HdrHistogram in
/// miniature): power-of-two majors split into 32 linear minors, ~3% value
/// precision, lock-free relaxed-atomic buckets so completion callbacks on
/// different reactor shards never contend. Values are nanoseconds.
class LatencyHistogram {
public:
  /// Linear up to 32ns, then 32 minors per power of two; 64-bit range.
  static constexpr unsigned kBuckets = 1920;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram &Other) { copyFrom(Other); }
  LatencyHistogram &operator=(const LatencyHistogram &Other) {
    if (this != &Other)
      copyFrom(Other);
    return *this;
  }

  /// Records one value. Thread-safe, wait-free.
  void record(uint64_t Nanos);

  /// Total recorded samples.
  uint64_t count() const;

  /// Largest value recorded (exact, not bucket-rounded).
  uint64_t maxValue() const { return Max.load(std::memory_order_relaxed); }

  /// Value at quantile \p Q in [0, 1]: the upper edge of the bucket the
  /// quantile falls in (<= ~3% above the true value). Returns 0 when
  /// empty; Q >= 1 returns maxValue().
  uint64_t valueAtQuantile(double Q) const;

  void reset();

  /// Maps a value to its bucket (exposed for the unit tests).
  static unsigned bucketIndex(uint64_t V);
  /// Inclusive upper value edge of bucket \p Index.
  static uint64_t bucketUpperBound(unsigned Index);

private:
  void copyFrom(const LatencyHistogram &Other);

  std::atomic<uint64_t> Buckets[kBuckets] = {};
  std::atomic<uint64_t> Max{0};
};

/// Load generator parameters.
struct LoadGenOptions {
  /// Total requests to schedule.
  uint64_t Requests = 10000;
  /// Open-loop arrival rate; 0 means unpaced (each request's intended
  /// time is its actual send time — a throughput run, no CO concept).
  double RatePerSec = 0.0;
  /// Connections to spread requests over, round-robin.
  unsigned Connections = 1;
  /// In-flight window: sends stall while this many are outstanding
  /// (0 = unbounded). The stall time is charged to the waiting requests'
  /// latencies via intended-time accounting.
  unsigned MaxInFlight = 1024;
  /// Default request payload size (MakeRequest overrides).
  size_t PayloadBytes = 32;
  /// Per-request deadline (ns after send, 0 = none): requests that miss
  /// it resolve as failures ("request deadline exceeded") and count into
  /// Failed — the open-loop schedule never blocks on a stuck server.
  uint64_t DeadlineNanos = 0;
  /// Optional request factory, called with the request sequence number.
  std::function<Bytes(uint64_t)> MakeRequest;
  /// Optional response validator; successes it accepts count as Valid.
  std::function<bool(const Bytes &)> Validate;
  /// Keep per-request (scheduled, sent, done) samples in the report.
  bool KeepSamples = false;
};

/// One per-request sample (KeepSamples mode).
struct LoadSample {
  uint64_t ScheduledNs = 0; ///< intended send time
  uint64_t SentNs = 0;      ///< actual send time (>= scheduled when the
                            ///< generator fell behind)
  uint64_t DoneNs = 0;      ///< completion time
  bool Ok = false;

  uint64_t intendedLatency() const { return DoneNs - ScheduledNs; }
  uint64_t sendDelay() const { return SentNs - ScheduledNs; }
};

/// The outcome of one load-generator run.
struct LoadReport {
  std::string Service;
  uint64_t Sent = 0;
  uint64_t Completed = 0; ///< futures that resolved successfully
  uint64_t Failed = 0;    ///< futures that resolved with an error
  uint64_t Valid = 0;     ///< successes the Validate hook accepted
  uint64_t ElapsedNanos = 0;

  /// Intended-time latency distribution.
  uint64_t P50 = 0, P99 = 0, P999 = 0, MaxNanos = 0;
  /// Worst scheduler lag (actual send - scheduled send): how far the
  /// generator fell behind its open-loop schedule.
  uint64_t MaxSendDelayNanos = 0;

  LatencyHistogram Histogram;
  std::vector<LoadSample> Samples; ///< KeepSamples mode only

  double sustainedRps() const {
    return ElapsedNanos == 0
               ? 0.0
               : static_cast<double>(Completed) * 1e9 /
                     static_cast<double>(ElapsedNanos);
  }
};

/// Drives an open-loop request schedule against a Server.
class LoadGen {
public:
  LoadGen(Server &Target, LoadGenOptions Opts);

  /// Runs the full schedule on the calling thread and returns the
  /// report. Also publishes the report via publishLoadReport.
  LoadReport run();

  /// Aborts an in-progress run (thread-safe): the generator stops
  /// sending, closes its connections, and every already-sent request
  /// still resolves (response or failure) before run() returns.
  void stop();

private:
  Server &Target;
  LoadGenOptions Opts;
  std::atomic<bool> StopFlag{false};
};

/// Publishes \p R as the process-global last load report and bumps the
/// publication counter. Thread-safe.
void publishLoadReport(const LoadReport &R);

/// Monotonic publication counter (0 = never published).
uint64_t loadReportVersion();

/// Snapshot of the last published report (sample vector omitted).
LoadReport lastLoadReport();

} // namespace netsim
} // namespace ren

#endif // REN_NETSIM_LOADGEN_H
