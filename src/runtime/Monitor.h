//===- runtime/Monitor.h - Reentrant monitors and guarded blocks -*- C++ -*-==//
//
// Part of Renaissance-C++, a reproduction of the PLDI'19 Renaissance paper.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Java-monitor analogues: reentrant mutual exclusion plus the wait/notify
/// ("guarded block") protocol, with metric instrumentation.
///
/// Every successful \c enter / \c tryEnter acquisition bumps Metric::Synch
/// (the paper's "synchronized methods and blocks executed"), every \c wait
/// bumps Metric::Wait, and every \c notifyOne / \c notifyAll bumps
/// Metric::Notify — mirroring the DiSL instrumentation the paper deploys on
/// monitorenter and Object.wait/notify/notifyAll.
///
/// The implementation is a thin-lock monitor in the style of HotSpot's lock
/// words and *Compact Java Monitors* (Dice & Kogan): a single atomic lock
/// word whose uncontended enter/exit is one CAS each, reentrancy is a
/// lock-free owner-token check with an inline recursion count, and
/// contention *inflates* to a fat path — bounded adaptive spinning, then a
/// CAS-registered entry queue of stack-allocated wait nodes parked on the
/// per-thread \c runtime::Parker. notify requeues wait-set nodes onto the
/// entry queue instead of waking them (no thundering herd); the eventual
/// \c exit hands the wakeup over. There is no biased locking (HotSpot
/// retired it in JEP 374 for the same reason: its complexity did not pay
/// for itself end to end), and no std::mutex or std::condition_variable
/// anywhere in the monitor; the state machine and its memory-ordering
/// argument are documented in DESIGN.md §10.
///
//===----------------------------------------------------------------------===//

#ifndef REN_RUNTIME_MONITOR_H
#define REN_RUNTIME_MONITOR_H

#include "metrics/Metrics.h"
#include "runtime/Park.h"
#include "trace/Trace.h"

#include <atomic>
#include <cassert>
#include <cstdint>

namespace ren {
namespace runtime {

/// A reentrant monitor with an associated wait set, like a Java object
/// monitor. Waiting releases the full recursion depth and restores it after
/// wakeup; spurious wakeups are permitted (as in Java), so callers must
/// re-check their condition — or use \c waitUntil.
class Monitor {
public:
  Monitor() = default;
  Monitor(const Monitor &) = delete;
  Monitor &operator=(const Monitor &) = delete;

  /// Enters the monitor, blocking until available. Reentrant.
  ///
  /// The uncontended fast path is inlined: a free monitor is entered with
  /// one CAS. The CAS is tried only when the word reads 0, so a reentrant
  /// enter (word already locked) does not pay for a failing CAS.
  /// Reentrancy and contention take the out-of-line cold path.
  void enter() {
    const uint64_t Self = currentThreadToken();
    uint64_t W = Word.load(std::memory_order_relaxed);
    if (W == 0 && Word.compare_exchange_strong(W, kLockedBit,
                                               std::memory_order_acquire,
                                               std::memory_order_relaxed)) {
      // Thin uncontended acquire: the CAS above is the entire lock.
      Owner.store(Self, std::memory_order_relaxed);
      Depth = 1;
      metrics::count(metrics::Metric::Synch);
      trace::instant(trace::EventKind::MonitorAcquire, "monitor.acquire",
                     trace::objectId(this), Depth);
      return;
    }
    enterCold(Self);
  }

  /// Attempts to enter without blocking (never spins or parks).
  /// \returns true on success.
  bool tryEnter() {
    const uint64_t Self = currentThreadToken();
    uint64_t W = Word.load(std::memory_order_relaxed);
    if (Owner.load(std::memory_order_relaxed) == Self) {
      // Reentrant: only this thread can have stored Self, so the relaxed
      // load is decisive.
      ++Depth;
      metrics::count(metrics::Metric::Synch);
      return true;
    }
    if (!(W & kLockedBit) &&
        Word.compare_exchange_strong(W, W | kLockedBit,
                                     std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
      Owner.store(Self, std::memory_order_relaxed);
      Depth = 1;
      metrics::count(metrics::Metric::Synch);
      return true;
    }
    // Metric rule: Synch counts successful acquisitions only, so a failed
    // tryEnter leaves the counter untouched (pinned by MonitorTest).
    return false;
  }

  /// Exits the monitor. Must be called by the owner.
  ///
  /// The thin release is one CAS that proves the entry queue was empty at
  /// release time; a queued node diverts to the out-of-line pop and
  /// handoff (a push can only land while the locked bit is set, so this
  /// CAS cannot race one in — see Monitor.cpp rule 3).
  void exit() {
    assert(Owner.load(std::memory_order_relaxed) == currentThreadToken() &&
           "monitor exited by non-owner");
    assert(Depth > 0 && "monitor exit without enter");
    if (--Depth > 0)
      return;
    Owner.store(0, std::memory_order_relaxed);
    uint64_t Expected = kLockedBit;
    if (Word.compare_exchange_strong(Expected, 0, std::memory_order_release,
                                     std::memory_order_relaxed))
      return;
    releaseOwnership();
  }

  /// Returns true if the calling thread owns the monitor. Lock-free: one
  /// relaxed load of the owner token, so assertion-heavy call sites never
  /// serialize against the monitor itself.
  bool heldByCurrentThread() const {
    return Owner.load(std::memory_order_relaxed) == currentThreadToken();
  }

  /// Number of threads currently inside the contended slow path (spinning
  /// or queued). Lock-free read. Lets tests and profilers build
  /// deterministic contention scenarios: spin until a victim is provably
  /// committed to the contended path before releasing.
  unsigned contendedAcquirers() const {
    return Queued.load(std::memory_order_acquire);
  }

  /// Releases the monitor and blocks until notified, then reacquires it at
  /// the previous depth. Caller must own the monitor.
  void wait();

  /// Like \c wait, but with a wall-clock timeout in milliseconds.
  /// \returns false if the timeout elapsed before a notification.
  bool waitFor(uint64_t Millis);

  /// Waits until \p Pred() holds, re-checking after every wakeup.
  template <typename PredT> void waitUntil(PredT Pred) {
    while (!Pred())
      wait();
  }

  /// Wakes one waiter (by moving it to the entry queue; it runs once the
  /// monitor is released). Caller must own the monitor.
  void notifyOne();

  /// Wakes all waiters. Caller must own the monitor.
  void notifyAll();

private:
  /// One blocked thread, stack-allocated in the blocking call's frame. The
  /// same node serves as an entry-queue link (Treiber stack threaded
  /// through the lock word) and as a wait-set link (owner-protected FIFO).
  struct QueueNode;

  /// The lock word. Bit 0 is the locked bit; the remaining bits are the
  /// entry-queue head pointer (QueueNodes are ≥2-aligned, so bit 0 of a
  /// node address is zero):
  ///
  ///   0                     unlocked, no queue (thin, free)
  ///   kLockedBit            locked, no queue   (thin, held)
  ///   node | kLockedBit     locked, queued     (fat, held)
  ///   node                  unlocked, queued   (fat, free — wakeup race
  ///                                             window; queuers re-check)
  static constexpr uint64_t kLockedBit = 1;

  std::atomic<uint64_t> Word{0};
  /// Owner thread token (currentThreadToken()), 0 when free. Written only
  /// by the thread that just won/held the lock word; read lock-free by
  /// heldByCurrentThread and the reentrancy fast path.
  std::atomic<uint64_t> Owner{0};
  /// Recursion depth; accessed only while owning the lock word.
  uint32_t Depth = 0;
  /// Threads currently in a queued (inflated) acquire.
  std::atomic<unsigned> Queued{0};
  /// Wait set: FIFO of QueueNodes, mutated only while owning the monitor.
  QueueNode *WaitHead = nullptr;
  QueueNode *WaitTail = nullptr;

  void enterCold(uint64_t Self);
  void enterSlow(uint64_t Self);
  void acquireQueued(QueueNode &N, uint64_t Self);
  void releaseOwnership();
  void requeueToEntry(QueueNode *N);
  void appendWaiter(QueueNode *N);
  void unlinkWaiter(QueueNode *N);
};

/// RAII synchronized block: \c Synchronized Sync(M); models
/// \c synchronized(m) { ... }.
class Synchronized {
public:
  explicit Synchronized(Monitor &M) : Mon(M) { Mon.enter(); }
  ~Synchronized() { Mon.exit(); }

  Synchronized(const Synchronized &) = delete;
  Synchronized &operator=(const Synchronized &) = delete;

private:
  Monitor &Mon;
};

} // namespace runtime
} // namespace ren

#endif // REN_RUNTIME_MONITOR_H
