//===- tests/stress/MonitorStressTest.cpp ---------------------------------==//
//
// Concurrency stress scenarios for the thin-lock Monitor rewrite
// (ctest -L stress, TSan target): enter/enter inflation races,
// first-touch races on a fresh word, notify-vs-timed-wait arbitration,
// exit-vs-inflating-enter lost-wakeup hunting, and reentrant depth
// conservation across contention and wait.
// A lost wakeup in the lock-word protocol shows up either as a forbidden
// outcome or as a hang caught by the stress tier's timeout.
//
//===----------------------------------------------------------------------===//

#include "runtime/Monitor.h"
#include "stress/Stress.h"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>

using namespace ren::stress;
using ren::runtime::Monitor;
using ren::runtime::Synchronized;

namespace {

/// Enter/enter inflation race: every actor hammers the same monitor with
/// a nudged critical section, so the lock word constantly flips between
/// thin CAS acquires, spin acquires, and queued (inflated) acquires. Any
/// interleaving that loses an update means entry was not exclusive; a
/// monitor left inflated or locked afterwards means the release protocol
/// leaked a node or the locked bit.
class InflationRaceScenario : public StressScenario {
public:
  std::string name() const override { return "monitor-inflation-race"; }
  unsigned actors() const override { return 3; }
  void prepare() override { Counter.store(0, std::memory_order_relaxed); }
  void run(unsigned, InterleavingNudge &Nudge) override {
    for (unsigned I = 0; I < 8; ++I) {
      Synchronized Sync(Mon);
      int64_t Old = Counter.load(std::memory_order_relaxed);
      if (I % 2 == 0)
        Nudge.pause(); // widen the hold so contenders inflate
      Counter.store(Old + 1, std::memory_order_relaxed);
    }
  }
  std::string observe() override {
    if (Counter.load() != 3 * 8)
      return "lost-update:" + std::to_string(Counter.load());
    if (Mon.contendedAcquirers() != 0)
      return "leaked-queued-acquirer";
    if (!Mon.tryEnter())
      return "monitor-left-locked";
    Mon.exit();
    return "exclusive-and-free";
  }
  OutcomeSpec spec() const override {
    OutcomeSpec Spec;
    Spec.accept("exclusive-and-free",
                "every critical section serialized; lock word drained")
        .forbid("leaked-queued-acquirer",
                "a queued node survived all releases")
        .forbid("monitor-left-locked",
                "the locked bit survived the last exit");
    return Spec;
  }

private:
  Monitor Mon;
  std::atomic<int64_t> Counter{0};
};

/// Notify vs timed wait: the waiter's timeout CAS races the notifier's
/// requeue CAS on the same node-state word. Whichever side wins, the
/// outcome must be coherent: a waiter that reports "notified" must
/// observe the flag the notifier set under the monitor, and the waiter
/// must never hang (bounded re-checking wait).
class NotifyVsTimedWaitScenario : public StressScenario {
public:
  std::string name() const override { return "monitor-notify-vs-timed-wait"; }
  unsigned actors() const override { return 2; }
  void prepare() override {
    Flag = false;
    SawIncoherent = false;
    Woken = false;
  }
  void run(unsigned Index, InterleavingNudge &Nudge) override {
    if (Index == 0) {
      Synchronized Sync(Mon);
      // Tiny timeouts on the first attempts make the timeout CAS race the
      // notifier's requeue; the bounded tail keeps a correct monitor from
      // ever turning the race into a hang.
      for (int Attempt = 0; !Flag && Attempt < 200; ++Attempt) {
        bool Notified = Mon.waitFor(Attempt < 4 ? 1 : 10);
        if (Notified && !Flag)
          SawIncoherent = true; // notified without the notifier's write
      }
      Woken = Flag;
    } else {
      Nudge.pause();
      Synchronized Sync(Mon);
      Flag = true;
      Mon.notifyOne();
    }
  }
  std::string observe() override {
    if (SawIncoherent)
      return "notified-without-flag";
    return Woken ? "woken" : "never-woken";
  }
  OutcomeSpec spec() const override {
    OutcomeSpec Spec;
    Spec.accept("woken", "waiter observed the notified state")
        .forbid("never-woken", "notification lost to the timeout race")
        .forbid("notified-without-flag",
                "waitFor returned true before the notifier's critical "
                "section became visible");
    return Spec;
  }

private:
  Monitor Mon;
  bool Flag = false;
  bool SawIncoherent = false;
  bool Woken = false;
};

/// Exit vs inflating enter: actor 1 times its node push against actor 0's
/// release — the classic lost-wakeup window. Rule 3 of the lock-word
/// protocol (the push CAS's expected value carries the locked bit) must
/// make the release either pop the node or prove the queue empty; if it
/// ever misses, the parked actor hangs and the stress timeout fires.
class ExitVsInflatingEnterScenario : public StressScenario {
public:
  std::string name() const override { return "monitor-exit-vs-enter"; }
  unsigned actors() const override { return 2; }
  void prepare() override { Entries.store(0, std::memory_order_relaxed); }
  void run(unsigned Index, InterleavingNudge &Nudge) override {
    for (unsigned I = 0; I < 8; ++I) {
      if (Index == 0) {
        Mon.enter();
        Nudge.pause(); // hold while the peer decides to inflate
        Entries.fetch_add(1, std::memory_order_relaxed);
        Mon.exit();
      } else {
        Nudge.pause(); // land the push as close to the exit as possible
        Mon.enter();
        Entries.fetch_add(1, std::memory_order_relaxed);
        Mon.exit();
      }
    }
  }
  std::string observe() override {
    return Entries.load() == 2 * 8 ? "all-entries"
                                   : "missing-entries";
  }
  OutcomeSpec spec() const override {
    OutcomeSpec Spec;
    Spec.accept("all-entries", "no enter was lost to the exit race");
    Spec.forbid("missing-entries", "an enter never completed");
    return Spec;
  }

private:
  Monitor Mon;
  std::atomic<int64_t> Entries{0};
};

/// Reentrant depth conservation: nested enters under contention must
/// unwind exactly — the monitor is still held after the inner exits and
/// free after the outer one, every time, even when the final exit hands
/// the lock to a queued peer.
class ReentrantDepthScenario : public StressScenario {
public:
  std::string name() const override { return "monitor-reentrant-depth"; }
  unsigned actors() const override { return 2; }
  void prepare() override { Violations.store(0, std::memory_order_relaxed); }
  void run(unsigned, InterleavingNudge &Nudge) override {
    for (unsigned I = 0; I < 6; ++I) {
      Mon.enter();
      Mon.enter();
      Mon.enter();
      Nudge.pause();
      Mon.exit();
      Mon.exit();
      if (!Mon.heldByCurrentThread())
        Violations.fetch_add(1, std::memory_order_relaxed);
      Mon.exit();
      if (Mon.heldByCurrentThread())
        Violations.fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::string observe() override {
    return Violations.load() == 0 ? "depth-conserved" : "depth-corrupted";
  }
  OutcomeSpec spec() const override {
    OutcomeSpec Spec;
    Spec.accept("depth-conserved", "recursion count unwound exactly");
    Spec.forbid("depth-corrupted", "ownership lost or leaked mid-unwind");
    return Spec;
  }

private:
  Monitor Mon;
  std::atomic<int64_t> Violations{0};
};

/// Depth conservation across wait(): a waiter parks at recursion depth 2
/// while a contending peer acquires, notifies and exits; after the wakeup
/// the waiter must again hold the monitor at depth 2 exactly.
class DeepWaitScenario : public StressScenario {
public:
  std::string name() const override { return "monitor-deep-wait"; }
  unsigned actors() const override { return 2; }
  void prepare() override {
    Flag = false;
    Ok = true;
  }
  void run(unsigned Index, InterleavingNudge &Nudge) override {
    if (Index == 0) {
      Mon.enter();
      Mon.enter(); // depth 2
      for (int Attempt = 0; !Flag && Attempt < 200; ++Attempt)
        Mon.waitFor(10);
      Ok = Flag && Mon.heldByCurrentThread();
      Mon.exit();
      Ok = Ok && Mon.heldByCurrentThread(); // still depth 1
      Mon.exit();
      Ok = Ok && !Mon.heldByCurrentThread();
    } else {
      Nudge.pause();
      Synchronized Sync(Mon);
      Flag = true;
      Mon.notifyAll();
    }
  }
  std::string observe() override {
    return Ok ? "depth-restored" : "depth-lost";
  }
  OutcomeSpec spec() const override {
    OutcomeSpec Spec;
    Spec.accept("depth-restored",
                "wait released and restored the full recursion depth");
    Spec.forbid("depth-lost", "wait corrupted the recursion depth");
    return Spec;
  }

private:
  Monitor Mon;
  bool Flag = false;
  bool Ok = true;
};

/// First touch of a fresh lock word: a *fresh* monitor every repetition,
/// so each rep races two actors' first acquisitions against the word's
/// initial 0 state — the inline thin CAS, its failure into the spin and
/// queue paths, and the release handoff. A broken first-touch handoff
/// shows up as a lost update; a word left locked or queued after both
/// actors drain shows up as a failed tryEnter.
class FirstTouchRaceScenario : public StressScenario {
public:
  std::string name() const override { return "monitor-first-touch"; }
  unsigned actors() const override { return 2; }
  void prepare() override {
    Mon.emplace(); // fresh word: both actors race its first acquisition
    Counter.store(0, std::memory_order_relaxed);
  }
  void run(unsigned Index, InterleavingNudge &Nudge) override {
    for (unsigned I = 0; I < 6; ++I) {
      if (Index == 1 && I == 0)
        Nudge.pause(); // let the peer take the word first, then contend
      Synchronized Sync(*Mon);
      int64_t Old = Counter.load(std::memory_order_relaxed);
      if (Index == 0 && I % 3 == 0)
        Nudge.pause(); // widen a hold so the peer spins or queues on it
      Counter.store(Old + 1, std::memory_order_relaxed);
    }
  }
  std::string observe() override {
    if (Counter.load() != 2 * 6)
      return "lost-update:" + std::to_string(Counter.load());
    // Both actors drained, so the word must be back in the free thin
    // state.
    if (!Mon->tryEnter())
      return "word-left-locked";
    Mon->exit();
    return "exclusive-and-free";
  }
  OutcomeSpec spec() const override {
    OutcomeSpec Spec;
    Spec.accept("exclusive-and-free",
                "every critical section serialized; the word settled free")
        .forbid("word-left-locked",
                "the last release leaked the locked or queued state");
    return Spec;
  }

private:
  std::optional<Monitor> Mon;
  std::atomic<int64_t> Counter{0};
};

} // namespace

TEST(MonitorStress, FirstTouchRaceKeepsExclusion) {
  FirstTouchRaceScenario S;
  StressRunner::Options Opts;
  Opts.Repetitions = 400;
  StressReport Report = StressRunner(Opts).run(S);
  EXPECT_TRUE(Report.passed()) << Report.summary();
}

TEST(MonitorStress, InflationRaceKeepsExclusionAndDrains) {
  InflationRaceScenario S;
  StressRunner::Options Opts;
  Opts.Repetitions = 300;
  StressReport Report = StressRunner(Opts).run(S);
  EXPECT_TRUE(Report.passed()) << Report.summary();
}

TEST(MonitorStress, NotifyVsTimedWaitNeverLosesEitherSide) {
  NotifyVsTimedWaitScenario S;
  StressRunner::Options Opts;
  Opts.Repetitions = 200;
  StressReport Report = StressRunner(Opts).run(S);
  EXPECT_TRUE(Report.passed()) << Report.summary();
}

TEST(MonitorStress, ExitVsInflatingEnterNeverLosesWakeup) {
  ExitVsInflatingEnterScenario S;
  StressRunner::Options Opts;
  Opts.Repetitions = 400;
  StressReport Report = StressRunner(Opts).run(S);
  EXPECT_TRUE(Report.passed()) << Report.summary();
}

TEST(MonitorStress, ReentrantDepthIsConserved) {
  ReentrantDepthScenario S;
  StressRunner::Options Opts;
  Opts.Repetitions = 300;
  StressReport Report = StressRunner(Opts).run(S);
  EXPECT_TRUE(Report.passed()) << Report.summary();
}

TEST(MonitorStress, WaitRestoresDepthUnderContention) {
  DeepWaitScenario S;
  StressRunner::Options Opts;
  Opts.Repetitions = 200;
  StressReport Report = StressRunner(Opts).run(S);
  EXPECT_TRUE(Report.passed()) << Report.summary();
}
