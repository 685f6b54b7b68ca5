//===- trace/Trace.h - Low-overhead per-thread event tracing ----*- C++ -*-===//
//
// Part of Renaissance-C++, a reproduction of the PLDI'19 Renaissance paper.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A low-overhead event tracer for the instrumented runtime substrates.
///
/// The paper's methodology rests on *observing* what the concurrency
/// primitives do; `ren::metrics` reproduces the aggregate counters but
/// discards the *when* and *who*. This layer records individual events —
/// contended monitor acquisitions with their blocked duration, park/unpark
/// latencies, CAS failures, fork/join steals, task queue latencies,
/// harness iteration boundaries — into per-thread lock-free ring buffers,
/// for export as Chrome `trace_event` JSON and contention profiles (see
/// trace/TraceSession.h).
///
/// Design constraints, in priority order:
///
///  1. *Disabled cost is one relaxed atomic load.* Every instrumentation
///     site guards on \c trace::enabled(); when tracing is off the whole
///     site is a relaxed load and a predictable branch — no timestamp, no
///     allocation, no store. A compile-time kill switch
///     (\c -DREN_TRACE_DISABLED, cmake option \c REN_TRACE_DISABLE) folds
///     the guard to \c false and lets the compiler delete the sites
///     entirely.
///  2. *Enabled recording never blocks and never allocates.* Each thread
///     owns a fixed-size ring buffer (single writer, no CAS on the hot
///     path); when the buffer laps an un-drained slot the old event is
///     overwritten and counted as dropped, never stalling the traced
///     thread. Event names are static strings (or interned once via
///     \c internName on cold paths).
///  3. *Draining is race-free, even concurrent with writers.* Slots are
///     seqlock-published (all-atomic fields, so the protocol is also
///     TSan-clean): the drain side validates each slot's sequence number
///     before and after copying it and discards torn reads as dropped.
///     Retired buffers of exited threads are kept registered and reclaimed
///     epoch-wise: a dead buffer is freed only one full drain epoch after
///     the drain that emptied it, so no drain can race a free.
///
//===----------------------------------------------------------------------===//

#ifndef REN_TRACE_TRACE_H
#define REN_TRACE_TRACE_H

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ren {
namespace trace {

/// Compile-time kill switch: building with -DREN_TRACE_DISABLED removes
/// every instrumentation site at compile time.
#ifdef REN_TRACE_DISABLED
inline constexpr bool kTraceCompiled = false;
#else
inline constexpr bool kTraceCompiled = true;
#endif

/// What kind of runtime event a trace record describes.
enum class EventKind : uint8_t {
  MonitorAcquire,   ///< Uncontended monitor entry. A = monitor address.
  MonitorContended, ///< Contended entry; Dur = blocked ns. A = address.
  MonitorWait,      ///< Object.wait analogue; Dur = waited ns. A = address.
  MonitorNotify,    ///< notifyOne/notifyAll. A = address, B = all ? 1 : 0.
  MonitorInflate,   ///< Monitor entry queue went from empty to populated
                    ///< (thin -> fat transition). A = address.
  Park,             ///< Parker::park(For); Dur = parked ns. A = parker.
  Unpark,           ///< Parker::unpark. A = parker address.
  CasFail,          ///< A failed CAS (one retry-loop iteration). A = cell.
  Bootstrap,        ///< invokedynamic bootstrap; Dur = linkage ns. A = site.
  MhSimplify,       ///< Method handle transitioned to the direct-invoke
                    ///< path. A = handle, B = stored inline ? 1 : 0.
  FjFork,           ///< Task pushed onto a worker deque. A = worker index.
  FjExternal,       ///< Task overflowed to the external queue.
  FjSteal,          ///< Successful steal. A = thief index, B = victim index.
  FjIdle,           ///< Worker idle-parked; Dur = idle ns. A = worker index.
  TaskRun,          ///< Executor task; Dur = run ns, A = queue-latency ns.
  Iteration,        ///< Harness iteration span. A = index, B = warmup.
  Run,              ///< Harness whole-benchmark span.
  HeapReclaim,      ///< Managed-heap reclaim pass ("GC pause"); Dur =
                    ///< pause ns, A = slabs recycled.
  User,             ///< Free-form event for tests and ad-hoc probes.
};

/// Number of EventKind values (for histogram arrays).
inline constexpr unsigned kNumEventKinds = 19;

/// Short lower-case kind name ("monitor.acquire", "fj.steal", ...).
const char *eventKindName(EventKind K);

/// Converts an object's address into the opaque 64-bit id trace events
/// carry in their A/B arguments: one well-defined uintptr_t -> uint64_t
/// conversion shared by every instrumentation site.
inline uint64_t objectId(const void *O) {
  return static_cast<uint64_t>(reinterpret_cast<uintptr_t>(O));
}

/// Chrome trace_event phase of a record.
enum class Phase : char {
  Instant = 'i',  ///< A point event.
  Complete = 'X', ///< A span with an explicit duration.
  Begin = 'B',    ///< Opens a span on the emitting thread.
  End = 'E',      ///< Closes the most recent open span on the thread.
};

/// One drained trace record.
struct TraceEvent {
  uint64_t Ts = 0;          ///< Wall-clock nanoseconds (event start).
  uint64_t Dur = 0;         ///< Span duration in nanoseconds (Complete).
  uint64_t A = 0;           ///< Kind-specific argument (see EventKind).
  uint64_t B = 0;           ///< Second kind-specific argument.
  const char *Name = "";    ///< Static or interned display name.
  EventKind Kind = EventKind::User;
  Phase Ph = Phase::Instant;
  uint32_t Tid = 0;         ///< Small sequential trace thread id.
};

/// A fixed-capacity single-writer ring buffer of trace records.
///
/// The owning thread appends with \c push; any thread may \c drainInto
/// under the registry lock. Publication is a per-slot seqlock over relaxed
/// atomic fields: \c push stores Seq=0, a release fence, the payload, then
/// Seq=index+1 (release); the reader validates Seq==index+1 before *and*
/// after copying the payload (with an acquire fence in between) and counts
/// mismatches — slots overwritten by a lapping writer mid-read — as
/// dropped rather than surfacing a torn record.
class TraceBuffer {
public:
  /// Slots per thread. 8192 events x 64B = 512KB per traced thread.
  static constexpr size_t kCapacity = 1 << 13;

  explicit TraceBuffer(uint32_t Tid) : Tid(Tid) {}
  TraceBuffer(const TraceBuffer &) = delete;
  TraceBuffer &operator=(const TraceBuffer &) = delete;

  /// The small sequential id of the owning thread.
  uint32_t tid() const { return Tid; }

  /// Appends one record. Must be called only by the owning thread. Never
  /// blocks, never allocates; laps overwrite the oldest un-drained slot.
  void push(EventKind K, Phase P, const char *Name, uint64_t Ts,
            uint64_t Dur, uint64_t A, uint64_t B);

  /// Copies every record published since the last drain into \p Out and
  /// advances the drain cursor. \returns the number of records lost since
  /// the last drain (overwritten by laps or torn mid-read). Must be called
  /// under the registry's drain lock (one drainer at a time); safe to run
  /// concurrently with the owner's \c push.
  uint64_t drainInto(std::vector<TraceEvent> &Out);

  /// Fast-forwards the drain cursor past everything published so far,
  /// discarding it. Registry-lock discipline as \c drainInto.
  void discard();

  /// True once the owning thread has exited.
  bool retired() const { return Retired.load(std::memory_order_acquire); }

  /// Marks the owning thread as exited (called from its TLS destructor).
  void retire() { Retired.store(true, std::memory_order_release); }

  /// True if every published record has been drained or discarded.
  bool drained() const {
    return Tail == Head.load(std::memory_order_acquire);
  }

private:
  /// All-atomic slot so concurrent drain/overwrite is TSan-clean; the Seq
  /// field carries the event's global index + 1 (0 = mid-write).
  struct Slot {
    std::atomic<uint64_t> Seq{0};
    std::atomic<uint64_t> Ts{0};
    std::atomic<uint64_t> Dur{0};
    std::atomic<uint64_t> A{0};
    std::atomic<uint64_t> B{0};
    std::atomic<const char *> Name{nullptr};
    std::atomic<uint16_t> KindPhase{0};
  };

  std::array<Slot, kCapacity> Slots;
  std::atomic<uint64_t> Head{0}; ///< Next write index (monotonic).
  uint64_t Tail = 0;             ///< Drain cursor (registry lock).
  std::atomic<bool> Retired{false};
  const uint32_t Tid;
};

namespace detail {

/// The runtime master switch (the REN_TRACE_ENABLED guard): instrumentation
/// sites poll it with one relaxed load. Mutated only via trace::setEnabled.
extern std::atomic<bool> GTraceEnabled;

/// Slow path of emit(): timestamps, finds the thread's buffer, pushes.
void emitAlways(EventKind K, Phase P, const char *Name, uint64_t Ts,
                uint64_t Dur, uint64_t A, uint64_t B);

} // namespace detail

/// True if tracing is compiled in and currently enabled. This is the whole
/// disabled-path cost: a single relaxed atomic load.
inline bool enabled() {
  if (!kTraceCompiled)
    return false;
  return detail::GTraceEnabled.load(std::memory_order_relaxed);
}

/// Turns event recording on or off (normally driven by TraceSession).
void setEnabled(bool On);

/// The tracer's time source: monotonic wall-clock nanoseconds, shared with
/// the harness so iteration spans and IterationRecord timings align.
uint64_t nowNanos();

/// Records an instant event (if tracing is enabled).
inline void instant(EventKind K, const char *Name, uint64_t A = 0,
                    uint64_t B = 0) {
  if (enabled())
    detail::emitAlways(K, Phase::Instant, Name, 0, 0, A, B);
}

/// Records a complete span that started at \p StartNs and lasted \p DurNs
/// (if tracing is enabled).
inline void span(EventKind K, const char *Name, uint64_t StartNs,
                 uint64_t DurNs, uint64_t A = 0, uint64_t B = 0) {
  if (enabled())
    detail::emitAlways(K, Phase::Complete, Name, StartNs, DurNs, A, B);
}

/// Records a Begin/End marker (chrome 'B'/'E'); pairs must balance on the
/// emitting thread.
inline void mark(EventKind K, Phase P, const char *Name, uint64_t A = 0,
                 uint64_t B = 0) {
  if (enabled())
    detail::emitAlways(K, P, Name, 0, 0, A, B);
}

/// Interns \p Name into a process-lifetime string pool and returns a
/// stable pointer usable as a TraceEvent name. Allocates on first sight of
/// a name — call only on cold paths (e.g. once per benchmark run).
const char *internName(const std::string &Name);

/// The process-global registry of per-thread trace buffers.
class TraceRegistry {
public:
  static TraceRegistry &get();

  /// The calling thread's buffer, registering it on first use.
  TraceBuffer &threadBuffer();

  /// Drains every registered buffer (live and retired) into \p Out.
  /// \returns total records dropped since the previous drain. Advances the
  /// reclamation epoch: retired buffers emptied in a *previous* epoch are
  /// freed here.
  uint64_t drainAll(std::vector<TraceEvent> &Out);

  /// Discards everything published so far in every buffer.
  void discardAll();

  /// Buffers currently registered (live + not-yet-reclaimed retired).
  size_t bufferCount();

  /// The current reclamation epoch (bumped by every drainAll).
  uint64_t epoch();

private:
  TraceRegistry() = default;
};

} // namespace trace
} // namespace ren

#endif // REN_TRACE_TRACE_H
