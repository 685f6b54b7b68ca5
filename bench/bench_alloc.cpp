//===- bench/bench_alloc.cpp - Managed-heap substrate microbench ----------==//
//
// Part of Renaissance-C++, a reproduction of the PLDI'19 Renaissance paper.
//
// The allocation-substrate cells for tools/check.sh --bench-smoke: every
// substrate case has a malloc twin run in the same invocation, and
// bench/BASELINE_alloc.json pins the malloc reference so a substrate
// regression >20% below it fails the gate.
//
//   alloc-churn   — tight alloc/free over a live ring (the bump-pointer
//                   fast path vs glibc's tcache), small and mixed sizes
//   cross-thread  — producer allocates, consumer frees (the remote-free
//                   Treiber push vs malloc's arena handoff)
//   frag-soak     — randomized alloc/free over a survivor table (slab
//                   recycling under fragmentation)
//
// Single-core caveat: on the 1-CPU container the cross-thread cell
// measures the free path's atomics plus scheduler handoff, not parallel
// arena behaviour; the baseline was pinned on the same host, so the gate
// still compares like with like.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

using namespace ren;
using namespace ren::runtime;

namespace {

struct SubstrateAlloc {
  static void *alloc(size_t N) { return heap::allocate(N); }
  static void free(void *P) { heap::deallocate(P); }
};

struct MallocAlloc {
  static void *alloc(size_t N) { return std::malloc(N); }
  static void free(void *P) { std::free(P); }
};

/// Tight same-thread churn over a ring of live blocks: every iteration
/// frees the oldest block and allocates a replacement, so the allocator
/// sees a steady live set instead of a stack-like pattern.
template <typename AllocT>
void allocChurn(benchmark::State &State, size_t Size) {
  constexpr size_t kRing = 128;
  void *Ring[kRing] = {};
  size_t I = 0;
  for (auto _ : State) {
    if (Ring[I])
      AllocT::free(Ring[I]);
    void *P = AllocT::alloc(Size);
    static_cast<char *>(P)[0] = 1; // touch
    Ring[I] = P;
    I = (I + 1) % kRing;
  }
  for (void *P : Ring)
    if (P)
      AllocT::free(P);
  State.SetItemsProcessed(State.iterations());
}

void BM_AllocChurnSmall_Substrate(benchmark::State &State) {
  allocChurn<SubstrateAlloc>(State, 64);
}
void BM_AllocChurnSmall_Malloc(benchmark::State &State) {
  allocChurn<MallocAlloc>(State, 64);
}
BENCHMARK(BM_AllocChurnSmall_Substrate);
BENCHMARK(BM_AllocChurnSmall_Malloc);

/// Mixed sizes across the class ladder (16..2048): stresses per-class bins
/// rather than one hot bin.
template <typename AllocT> void allocChurnMixed(benchmark::State &State) {
  constexpr size_t kRing = 128;
  static constexpr size_t kSizes[8] = {16, 48, 96, 160, 320, 640, 1024, 2048};
  void *Ring[kRing] = {};
  size_t I = 0;
  for (auto _ : State) {
    if (Ring[I])
      AllocT::free(Ring[I]);
    void *P = AllocT::alloc(kSizes[I % 8]);
    static_cast<char *>(P)[0] = 1;
    Ring[I] = P;
    I = (I + 1) % kRing;
  }
  for (void *P : Ring)
    if (P)
      AllocT::free(P);
  State.SetItemsProcessed(State.iterations());
}

void BM_AllocChurnMixed_Substrate(benchmark::State &State) {
  allocChurnMixed<SubstrateAlloc>(State);
}
void BM_AllocChurnMixed_Malloc(benchmark::State &State) {
  allocChurnMixed<MallocAlloc>(State);
}
BENCHMARK(BM_AllocChurnMixed_Substrate);
BENCHMARK(BM_AllocChurnMixed_Malloc);

/// Producer-consumer cross-thread free: the benchmark thread allocates
/// and publishes; a consumer thread frees. Every block takes the
/// substrate's remote-free path (or malloc's cross-arena return).
template <typename AllocT> void crossThreadFree(benchmark::State &State) {
  constexpr size_t kRing = 256;
  std::vector<std::atomic<void *>> Ring(kRing);
  for (auto &S : Ring)
    S.store(nullptr, std::memory_order_relaxed);
  std::atomic<bool> Stop{false};

  std::thread Consumer([&] {
    size_t I = 0;
    for (;;) {
      void *P = Ring[I].exchange(nullptr, std::memory_order_acquire);
      if (P) {
        AllocT::free(P);
        I = (I + 1) % kRing;
      } else if (Stop.load(std::memory_order_acquire)) {
        return;
      } else {
        std::this_thread::yield();
      }
    }
  });

  size_t I = 0;
  for (auto _ : State) {
    void *P = AllocT::alloc(96);
    static_cast<char *>(P)[0] = 1;
    while (Ring[I].load(std::memory_order_relaxed) != nullptr)
      std::this_thread::yield(); // ring full: consumer is behind
    Ring[I].store(P, std::memory_order_release);
    I = (I + 1) % kRing;
  }
  Stop.store(true, std::memory_order_release);
  Consumer.join();
  for (auto &S : Ring)
    if (void *P = S.load(std::memory_order_relaxed))
      AllocT::free(P);
  State.SetItemsProcessed(State.iterations());
}

void BM_CrossThreadFree_Substrate(benchmark::State &State) {
  crossThreadFree<SubstrateAlloc>(State);
}
void BM_CrossThreadFree_Malloc(benchmark::State &State) {
  crossThreadFree<MallocAlloc>(State);
}
BENCHMARK(BM_CrossThreadFree_Substrate)->UseRealTime();
BENCHMARK(BM_CrossThreadFree_Malloc)->UseRealTime();

/// Fragmentation soak: a survivor table with seeded random alloc/free of
/// mixed sizes. Long-lived blocks pin slabs while their neighbours churn
/// — the pattern slab recycling has to cope with.
template <typename AllocT> void fragSoak(benchmark::State &State) {
  constexpr size_t kSlots = 4096;
  struct Slot {
    void *Ptr = nullptr;
    size_t Size = 0;
  };
  std::vector<Slot> Slots(kSlots);
  Xoshiro256StarStar Rng(0xF7A6);
  for (auto _ : State) {
    Slot &S = Slots[Rng.nextBounded(kSlots)];
    if (S.Ptr) {
      AllocT::free(S.Ptr);
      S.Ptr = nullptr;
    } else {
      S.Size = size_t(16) << Rng.nextBounded(7); // 16..1024
      S.Ptr = AllocT::alloc(S.Size);
      static_cast<char *>(S.Ptr)[0] = 1;
    }
  }
  for (Slot &S : Slots)
    if (S.Ptr)
      AllocT::free(S.Ptr);
  State.SetItemsProcessed(State.iterations());
}

void BM_FragSoak_Substrate(benchmark::State &State) {
  fragSoak<SubstrateAlloc>(State);
}
void BM_FragSoak_Malloc(benchmark::State &State) {
  fragSoak<MallocAlloc>(State);
}
BENCHMARK(BM_FragSoak_Substrate);
BENCHMARK(BM_FragSoak_Malloc);

} // namespace

BENCHMARK_MAIN();
