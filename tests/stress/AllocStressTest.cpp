//===- tests/stress/AllocStressTest.cpp -----------------------------------==//
//
// Concurrency stress scenarios for the managed allocation substrate
// (ctest -L stress, and the TSan/ASan target for the heap rework): remote
// frees racing each other and the owner's harvest, allocation racing
// reclaim passes, thread exit orphaning slabs under a concurrent
// reclaimer, and empty-slab recycling racing late remote frees.
//
// Every scenario observes data integrity (seeded fill patterns checked
// before free) rather than raw stat equality: a lost block, a
// double-serve, or a premature recycle shows up as a corrupt pattern or
// a forbidden outcome count.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"
#include "stress/Stress.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

using namespace ren::stress;
using namespace ren::runtime;

namespace {

constexpr size_t kBlockSize = 96;
constexpr int kBlocksPerActor = 48;

void fillBlock(void *P, uint8_t Tag) { std::memset(P, Tag, kBlockSize); }

bool checkBlock(const void *P, uint8_t Tag) {
  const auto *Bytes = static_cast<const uint8_t *>(P);
  for (size_t I = 0; I < kBlockSize; ++I)
    if (Bytes[I] != Tag)
      return false;
  return true;
}

/// Two threads free blocks owned by a third (the control thread): both
/// CAS-push onto the same slabs' remote-free stacks while the owner
/// keeps allocating (harvesting those stacks on its slow path).
class RemoteFreeRaceScenario : public StressScenario {
public:
  std::string name() const override { return "heap-remote-free"; }
  unsigned actors() const override { return 2; }

  void prepare() override {
    Corrupt.store(0);
    for (unsigned A = 0; A < 2; ++A) {
      Blocks[A].clear();
      for (int I = 0; I < kBlocksPerActor; ++I) {
        void *P = heap::allocate(kBlockSize);
        fillBlock(P, tag(A, I));
        Blocks[A].push_back(P);
      }
    }
  }

  void run(unsigned Index, InterleavingNudge &Nudge) override {
    for (int I = 0; I < kBlocksPerActor; ++I) {
      if (!checkBlock(Blocks[Index][I], tag(Index, I)))
        Corrupt.fetch_add(1);
      heap::deallocate(Blocks[Index][I]);
      if (I % 8 == 0)
        Nudge.pause();
    }
  }

  std::string observe() override {
    // Allocate again on the owning thread: the slow path harvests the
    // remote stacks the actors just raced on.
    std::vector<void *> Again;
    for (int I = 0; I < kBlocksPerActor; ++I) {
      void *P = heap::allocate(kBlockSize);
      fillBlock(P, 0xEE);
      Again.push_back(P);
    }
    for (void *P : Again) {
      if (!checkBlock(P, 0xEE))
        Corrupt.fetch_add(1);
      heap::deallocate(P);
    }
    int C = Corrupt.load();
    return C == 0 ? "ok" : "corrupt:" + std::to_string(C);
  }

  OutcomeSpec spec() const override {
    OutcomeSpec Spec;
    Spec.accept("ok", "every remote-freed block survived the push race");
    return Spec;
  }

private:
  static uint8_t tag(unsigned Actor, int I) {
    return static_cast<uint8_t>(1 + Actor * 100 + (I % 100));
  }
  std::vector<void *> Blocks[2];
  std::atomic<int> Corrupt{0};
};

/// Allocation/free churn racing concurrent reclaim passes: the epoch
/// advance and orphan adoption must never disturb blocks
/// a live thread is actively using.
class AllocVsReclaimScenario : public StressScenario {
public:
  std::string name() const override { return "heap-alloc-vs-reclaim"; }
  unsigned actors() const override { return 2; }

  void prepare() override { Corrupt.store(0); }

  void run(unsigned Index, InterleavingNudge &Nudge) override {
    if (Index == 0) {
      for (int I = 0; I < 64; ++I) {
        size_t Size = 16 + 16 * (I % 24);
        auto *P = static_cast<uint8_t *>(heap::allocate(Size));
        std::memset(P, 0xC3, Size);
        if (I % 16 == 0)
          Nudge.pause();
        for (size_t J = 0; J < Size; ++J)
          if (P[J] != 0xC3) {
            Corrupt.fetch_add(1);
            break;
          }
        heap::deallocate(P);
      }
    } else {
      for (int I = 0; I < 4; ++I) {
        heap::reclaim();
        Nudge.pause();
      }
    }
  }

  std::string observe() override {
    int C = Corrupt.load();
    return C == 0 ? "ok" : "corrupt:" + std::to_string(C);
  }

  OutcomeSpec spec() const override {
    OutcomeSpec Spec;
    Spec.accept("ok", "reclaim passes never disturbed live blocks");
    return Spec;
  }

private:
  std::atomic<int> Corrupt{0};
};

/// Thread exit with live slabs racing a reclaimer: a short-lived thread
/// allocates, hands half its blocks over, and exits (orphaning its
/// partially-live slabs at the current epoch) while the other actor runs
/// reclaim passes. The handed-over blocks must stay intact and freeable
/// after the orphan was adopted.
class ThreadExitVsReclaimScenario : public StressScenario {
public:
  std::string name() const override { return "heap-exit-vs-reclaim"; }
  unsigned actors() const override { return 2; }

  void prepare() override {
    Corrupt.store(0);
    Handoff.clear();
    Handoff.resize(kBlocksPerActor, nullptr);
  }

  void run(unsigned Index, InterleavingNudge &Nudge) override {
    if (Index == 0) {
      std::thread Short([this] {
        for (int I = 0; I < kBlocksPerActor; ++I) {
          void *P = heap::allocate(kBlockSize);
          fillBlock(P, static_cast<uint8_t>(7 + I % 32));
          Handoff[I] = P;
        }
        // Free every other block locally; the rest outlive this thread.
        for (int I = 0; I < kBlocksPerActor; I += 2) {
          heap::deallocate(Handoff[I]);
          Handoff[I] = nullptr;
        }
      });
      Short.join();
      Nudge.pause();
      for (int I = 1; I < kBlocksPerActor; I += 2) {
        if (!checkBlock(Handoff[I], static_cast<uint8_t>(7 + I % 32)))
          Corrupt.fetch_add(1);
        heap::deallocate(Handoff[I]);
      }
    } else {
      for (int I = 0; I < 4; ++I) {
        heap::reclaim();
        Nudge.pause();
      }
    }
  }

  std::string observe() override {
    heap::reclaim();
    int C = Corrupt.load();
    return C == 0 ? "ok" : "corrupt:" + std::to_string(C);
  }

  OutcomeSpec spec() const override {
    OutcomeSpec Spec;
    Spec.accept("ok", "orphaned slabs kept surviving blocks intact");
    return Spec;
  }

private:
  std::vector<void *> Handoff;
  std::atomic<int> Corrupt{0};
};

/// Empty-slab recycling racing late remote frees: actor 0 churns through
/// whole slabs (drain + refill forces the slow-path sweep that releases
/// fully-free slabs to the shared pool) while actor 1 remote-frees
/// blocks from those same slabs. The emptiness invariant — in-flight
/// remote frees keep a slab non-recyclable — is what this hammers.
class RecycleVsRemoteFreeScenario : public StressScenario {
public:
  std::string name() const override { return "heap-recycle-vs-remote"; }
  unsigned actors() const override { return 2; }

  void prepare() override {
    Corrupt.store(0);
    for (auto &Slot : Slots)
      Slot.store(nullptr, std::memory_order_relaxed);
  }

  void run(unsigned Index, InterleavingNudge &Nudge) override {
    if (Index == 0) {
      // Publish blocks for the freer, then churn: the churn's slow paths
      // sweep owned slabs and hand empty ones back to the pool.
      for (auto &Slot : Slots) {
        void *P = heap::allocate(kBlockSize);
        fillBlock(P, 0x42);
        Slot.store(P, std::memory_order_release);
      }
      for (int I = 0; I < 128; ++I) {
        void *P = heap::allocate(kBlockSize);
        heap::deallocate(P);
        if (I % 32 == 0)
          Nudge.pause();
      }
    } else {
      for (auto &Slot : Slots) {
        void *P;
        while ((P = Slot.exchange(nullptr, std::memory_order_acquire)) ==
               nullptr)
          Nudge.pause();
        if (!checkBlock(P, 0x42))
          Corrupt.fetch_add(1);
        heap::deallocate(P);
      }
    }
  }

  std::string observe() override {
    int C = Corrupt.load();
    return C == 0 ? "ok" : "corrupt:" + std::to_string(C);
  }

  OutcomeSpec spec() const override {
    OutcomeSpec Spec;
    Spec.accept("ok", "no slab was recycled with remote frees in flight");
    return Spec;
  }

private:
  std::atomic<void *> Slots[32];
  std::atomic<int> Corrupt{0};
};

} // namespace

TEST(AllocStressTest, RemoteFreeRace) {
  RemoteFreeRaceScenario S;
  StressRunner::Options Opts;
  Opts.Repetitions = 400;
  StressReport Report = StressRunner(Opts).run(S);
  EXPECT_TRUE(Report.passed()) << Report.summary();
}

TEST(AllocStressTest, AllocVsReclaim) {
  AllocVsReclaimScenario S;
  StressRunner::Options Opts;
  Opts.Repetitions = 300;
  StressReport Report = StressRunner(Opts).run(S);
  EXPECT_TRUE(Report.passed()) << Report.summary();
}

TEST(AllocStressTest, ThreadExitVsReclaim) {
  ThreadExitVsReclaimScenario S;
  StressRunner::Options Opts;
  Opts.Repetitions = 200; // spawns a real thread per repetition
  StressReport Report = StressRunner(Opts).run(S);
  EXPECT_TRUE(Report.passed()) << Report.summary();
}

TEST(AllocStressTest, RecycleVsRemoteFree) {
  RecycleVsRemoteFreeScenario S;
  StressRunner::Options Opts;
  Opts.Repetitions = 300;
  StressReport Report = StressRunner(Opts).run(S);
  EXPECT_TRUE(Report.passed()) << Report.summary();
}
