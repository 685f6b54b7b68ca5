//===- runtime/Monitor.cpp ------------------------------------------------==//
//
// The thin/fat lock-word monitor. Every acquisition, the first one
// included, goes through the word protocol below; there is no biased
// mode. The full state machine and memory-ordering argument live in
// DESIGN.md §10; the load-bearing rules are
//
//  (1) every transfer of ownership goes through a CAS on the lock word —
//      an acquiring CAS is acquire, a releasing CAS is release, and since
//      *every* write to the word is an RMW, the release sequence makes any
//      later acquiring CAS synchronize with every earlier releasing one.
//      Owner/Depth/wait-set accesses therefore always happen-before the
//      next owner's accesses, without being atomic RMWs themselves.
//  (2) a queued acquirer publishes its stack node with a release CAS on
//      the word (covering the node's fields), and the exiting owner pops
//      the node with an acquire read before dereferencing it. The popper
//      copies the node's parker out, *then* sets Released (release), then
//      unparks: once the waiter observes Released (acquire) its frame may
//      legally die — the flag, not the unpark, is the lifetime handshake
//      (the same protocol as the fork/join join nodes, DESIGN.md §9).
//  (3) a push can only land while the locked bit is set (the push CAS's
//      expected value carries the bit), so the lock holder cannot miss it:
//      its releasing CAS either pops a queued node and wakes it, or
//      proves the queue was empty at release time. An enter that loses
//      the push race against a release re-reads the word and acquires
//      instead of parking — no lost wakeups.
//
//===----------------------------------------------------------------------===//

#include "runtime/Monitor.h"

#include "metrics/Metrics.h"
#include "runtime/Park.h"
#include "trace/Trace.h"

#include <cassert>
#include <chrono>
#include <thread>

using namespace ren;
using namespace ren::runtime;
using metrics::Metric;

/// Wait-node state (wait-set arbitration between notify and timeout).
namespace {

constexpr uint32_t kWaiting = 0;  ///< In the wait set, not yet notified.
constexpr uint32_t kNotified = 1; ///< Moved to the entry queue by notify.
constexpr uint32_t kTimedOut = 2; ///< Claimed by the waiter's own timeout.

inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// One step of bounded exponential backoff between spin probes: pause
/// bursts first, yields after (so single-CPU hosts make progress while a
/// contender spins against the lock holder).
inline void backoffStep(unsigned Round) {
  if (Round < 4) {
    for (unsigned I = 0; I < (8u << Round); ++I)
      cpuRelax();
  } else {
    std::this_thread::yield();
  }
}

/// Adaptive spin bound before a contended enter inflates (queues and
/// parks). Spinning only pays when the lock holder can run concurrently,
/// so single-CPU hosts skip straight to the queue.
unsigned spinRounds() {
  static const unsigned Rounds =
      std::thread::hardware_concurrency() > 1 ? 8 : 0;
  return Rounds;
}

/// Lock-word encoding of a node pointer (bit 0 stays free for kLockedBit).
inline uint64_t nodeBits(const void *N) {
  return static_cast<uint64_t>(reinterpret_cast<uintptr_t>(N));
}

} // namespace

struct Monitor::QueueNode {
  /// The blocked thread's parker; set once at construction, read by the
  /// popping owner after the publishing CAS (rule 2).
  Parker *P = nullptr;
  /// Entry-queue (Treiber stack) link. Written before the publishing push
  /// CAS; stable until popped (only the lock holder pops, so the stack has
  /// one consumer and no pop-side ABA).
  QueueNode *Next = nullptr;
  /// Wait-set FIFO link; accessed only while owning the monitor.
  QueueNode *NextWait = nullptr;
  /// kWaiting / kNotified / kTimedOut; the notify-vs-timeout CAS target.
  std::atomic<uint32_t> State{kWaiting};
  /// The pop handshake: set by the exiting owner after it has copied P
  /// out; once true, this frame may die (rule 2).
  std::atomic<bool> Released{false};
};

void Monitor::enterCold(uint64_t Self) {
  // Tracing guard: one relaxed load when disabled; the timestamp is taken
  // only when a session is recording.
  uint64_t TraceT0 = trace::enabled() ? trace::nowNanos() : 0;
  if (Owner.load(std::memory_order_relaxed) == Self) {
    // Reentrant: only this thread can have stored Self, so the relaxed
    // load is decisive and no CAS is needed at all.
    ++Depth;
    metrics::count(Metric::Synch);
    if (TraceT0)
      trace::instant(trace::EventKind::MonitorAcquire, "monitor.acquire",
                     trace::objectId(this), Depth);
    return;
  }
  enterSlow(Self);
  metrics::count(Metric::Synch);
  if (TraceT0)
    trace::span(trace::EventKind::MonitorContended, "monitor.contended",
                TraceT0, trace::nowNanos() - TraceT0, trace::objectId(this));
}

void Monitor::enterSlow(uint64_t Self) {
  // The contended-acquirer count covers the whole slow path (spin and
  // queue), so a holder polling contendedAcquirers() before releasing sees
  // every committed contender.
  Queued.fetch_add(1, std::memory_order_relaxed);
  uint64_t W = Word.load(std::memory_order_relaxed);

  // Phase 1 — bounded adaptive spin: worth it only while the lock is held
  // thin (somebody queued means the holder will wake *them* first, so a
  // spinner would cut the queue ahead of threads that already paid for a
  // park — give up immediately and join them).
  for (unsigned Round = 0, Bound = spinRounds(); Round < Bound; ++Round) {
    if (!(W & kLockedBit)) {
      if (Word.compare_exchange_weak(W, W | kLockedBit,
                                     std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
        Owner.store(Self, std::memory_order_relaxed);
        Depth = 1;
        Queued.fetch_sub(1, std::memory_order_relaxed);
        return;
      }
      continue; // CAS refreshed W; re-examine without burning backoff.
    }
    if (W & ~kLockedBit)
      break; // Already inflated; park behind the queue.
    backoffStep(Round);
    W = Word.load(std::memory_order_relaxed);
  }

  // Phase 2 — inflate: register a stack node on the entry queue and park.
  QueueNode N;
  N.P = &currentParker();
  acquireQueued(N, Self);
  Queued.fetch_sub(1, std::memory_order_relaxed);
}

void Monitor::acquireQueued(QueueNode &N, uint64_t Self) {
  static_assert(alignof(QueueNode) >= 2,
                "QueueNode addresses must leave bit 0 free for kLockedBit");
  for (;;) {
    uint64_t W = Word.load(std::memory_order_relaxed);
    if (!(W & kLockedBit)) {
      // Free (queue may be non-empty — barging is allowed, as in HotSpot;
      // fairness is traded for the release fast path).
      if (Word.compare_exchange_weak(W, W | kLockedBit,
                                     std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
        Owner.store(Self, std::memory_order_relaxed);
        Depth = 1;
        return;
      }
      continue;
    }
    // Held: push our node. The expected value carries the locked bit, so
    // the push can only land while the lock is held (rule 3) — if the
    // holder releases first, the CAS fails and we retry the acquire.
    N.Released.store(false, std::memory_order_relaxed);
    N.Next = reinterpret_cast<QueueNode *>(W & ~kLockedBit);
    if (!Word.compare_exchange_weak(W, nodeBits(&N) | kLockedBit,
                                    std::memory_order_release,
                                    std::memory_order_relaxed))
      continue;
    if (!N.Next)
      trace::instant(trace::EventKind::MonitorInflate, "monitor.inflate",
                     trace::objectId(this));
    // Parked wait for the release baton (rule 2). A stray permit from an
    // earlier unpark makes park return early; the flag re-check absorbs it.
    while (!N.Released.load(std::memory_order_acquire))
      N.P->park();
  }
}

void Monitor::releaseOwnership() {
  Owner.store(0, std::memory_order_relaxed);
  uint64_t W = Word.load(std::memory_order_acquire);
  for (;;) {
    assert((W & kLockedBit) && "releasing an unheld monitor");
    auto *Head = reinterpret_cast<QueueNode *>(W & ~kLockedBit);
    if (!Head) {
      // Thin release: one CAS. A push racing in flips the CAS into the
      // pop branch below instead — it cannot land after we succeed,
      // because its expected value carries the locked bit (rule 3).
      if (Word.compare_exchange_weak(W, 0, std::memory_order_release,
                                     std::memory_order_acquire))
        return;
      continue;
    }
    // Fat release: unlock and pop the most recent queuer in one CAS, then
    // hand it the baton. Only the lock holder pops, so Head->Next is
    // stable here even while new pushes retarget the word.
    if (Word.compare_exchange_weak(W, nodeBits(Head->Next),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
      Parker *P = Head->P;
      // Copy everything out of the node *before* releasing it: once
      // Released is set the waiter may return and pop its stack frame.
      Head->Released.store(true, std::memory_order_release);
      P->unpark();
      return;
    }
  }
}

void Monitor::appendWaiter(QueueNode *N) {
  N->NextWait = nullptr;
  if (WaitTail)
    WaitTail->NextWait = N;
  else
    WaitHead = N;
  WaitTail = N;
}

void Monitor::unlinkWaiter(QueueNode *N) {
  QueueNode *Prev = nullptr;
  for (QueueNode *Cur = WaitHead; Cur; Prev = Cur, Cur = Cur->NextWait) {
    if (Cur != N)
      continue;
    if (Prev)
      Prev->NextWait = N->NextWait;
    else
      WaitHead = N->NextWait;
    if (WaitTail == N)
      WaitTail = Prev;
    return;
  }
  // Not found: a notifier unlinked the node after losing the timeout CAS;
  // nothing left to do.
}

void Monitor::requeueToEntry(QueueNode *N) {
  N->Released.store(false, std::memory_order_relaxed);
  uint64_t W = Word.load(std::memory_order_relaxed);
  for (;;) {
    assert((W & kLockedBit) && "requeue requires ownership");
    N->Next = reinterpret_cast<QueueNode *>(W & ~kLockedBit);
    if (Word.compare_exchange_weak(W, nodeBits(N) | kLockedBit,
                                   std::memory_order_release,
                                   std::memory_order_relaxed))
      break;
  }
  if (!N->Next)
    trace::instant(trace::EventKind::MonitorInflate, "monitor.inflate",
                   trace::objectId(this));
}

void Monitor::wait() {
  metrics::count(Metric::Wait);
  uint64_t TraceT0 = trace::enabled() ? trace::nowNanos() : 0;
  const uint64_t Self = currentThreadToken();
  assert(Owner.load(std::memory_order_relaxed) == Self &&
         "wait requires ownership");
  QueueNode N;
  N.P = &currentParker();
  appendWaiter(&N);
  const uint32_t SavedDepth = Depth;
  Depth = 0;
  releaseOwnership();
  // Block until a notifier requeues the node onto the entry queue and a
  // subsequent exit hands over the baton — notify alone never wakes a
  // waiter (requeue-to-entry: no thundering herd, no futile wakeups).
  while (!N.Released.load(std::memory_order_acquire))
    N.P->park();
  Queued.fetch_add(1, std::memory_order_relaxed);
  acquireQueued(N, Self);
  Queued.fetch_sub(1, std::memory_order_relaxed);
  Depth = SavedDepth;
  if (TraceT0)
    trace::span(trace::EventKind::MonitorWait, "monitor.wait", TraceT0,
                trace::nowNanos() - TraceT0, trace::objectId(this));
}

bool Monitor::waitFor(uint64_t Millis) {
  metrics::count(Metric::Wait);
  uint64_t TraceT0 = trace::enabled() ? trace::nowNanos() : 0;
  const uint64_t Self = currentThreadToken();
  assert(Owner.load(std::memory_order_relaxed) == Self &&
         "wait requires ownership");
  QueueNode N;
  N.P = &currentParker();
  appendWaiter(&N);
  const uint32_t SavedDepth = Depth;
  Depth = 0;
  releaseOwnership();

  // Timed phase: the deadline covers the *wait*; reacquisition afterwards
  // is unbounded, as in Object.wait(timeout). The notify-vs-timeout race
  // is arbitrated by one CAS on the node state.
  const auto Deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(Millis);
  bool Notified = true;
  for (;;) {
    if (N.State.load(std::memory_order_acquire) != kWaiting)
      break; // Notified: the node is on (or headed to) the entry queue.
    const auto Now = std::chrono::steady_clock::now();
    if (Now >= Deadline) {
      uint32_t Expected = kWaiting;
      if (N.State.compare_exchange_strong(Expected, kTimedOut,
                                          std::memory_order_acq_rel))
        Notified = false;
      // On CAS failure a notifier claimed the node first: count it as a
      // notification delivered at the deadline.
      break;
    }
    const auto RemainMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(Deadline - Now)
            .count();
    N.P->parkFor(static_cast<uint64_t>(RemainMs) + 1);
  }

  Queued.fetch_add(1, std::memory_order_relaxed);
  if (Notified) {
    // Requeued by the notifier: wait for the exit baton like any queued
    // acquirer, then reacquire.
    while (!N.Released.load(std::memory_order_acquire))
      N.P->park();
    acquireQueued(N, Self);
  } else {
    // Timed out: reacquire through the normal entry protocol (the node's
    // entry fields are free — no notifier will touch a kTimedOut node),
    // then unlink ourselves from the wait set under ownership.
    acquireQueued(N, Self);
    unlinkWaiter(&N);
  }
  Queued.fetch_sub(1, std::memory_order_relaxed);
  Depth = SavedDepth;
  if (TraceT0)
    trace::span(trace::EventKind::MonitorWait, "monitor.wait", TraceT0,
                trace::nowNanos() - TraceT0, trace::objectId(this),
                Notified);
  return Notified;
}

void Monitor::notifyOne() {
  metrics::count(Metric::Notify);
  assert(Owner.load(std::memory_order_relaxed) == currentThreadToken() &&
         "notify requires ownership");
  trace::instant(trace::EventKind::MonitorNotify, "monitor.notify",
                 trace::objectId(this), 0);
  while (QueueNode *N = WaitHead) {
    WaitHead = N->NextWait;
    if (!WaitHead)
      WaitTail = nullptr;
    uint32_t Expected = kWaiting;
    if (N->State.compare_exchange_strong(Expected, kNotified,
                                         std::memory_order_acq_rel)) {
      requeueToEntry(N);
      return;
    }
    // The waiter timed out concurrently; its notification must not be
    // swallowed — fall through and wake the next waiter instead. (The
    // timed-out node stays alive until its owner reacquires the monitor,
    // which needs our release, so touching it here was safe.)
  }
}

void Monitor::notifyAll() {
  metrics::count(Metric::Notify);
  assert(Owner.load(std::memory_order_relaxed) == currentThreadToken() &&
         "notify requires ownership");
  trace::instant(trace::EventKind::MonitorNotify, "monitor.notify",
                 trace::objectId(this), 1);
  while (QueueNode *N = WaitHead) {
    WaitHead = N->NextWait;
    if (!WaitHead)
      WaitTail = nullptr;
    uint32_t Expected = kWaiting;
    if (N->State.compare_exchange_strong(Expected, kNotified,
                                         std::memory_order_acq_rel))
      requeueToEntry(N);
  }
}
