//===- tests/runtime/HeapTest.cpp -----------------------------------------==//
//
// Unit coverage for the managed allocation substrate (runtime/Heap.h):
// the size-class ladder, the multiply-shift block-index reciprocal
// (verified exhaustively), slab alloc/free round-trips, the large path,
// cross-thread frees, thread-exit orphaning + epoch reclaim, and the
// deferred-refcount mode.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

using namespace ren::runtime;
using namespace ren::runtime::heap;

namespace {

HeapStats delta(const HeapStats &Before) {
  return HeapStats::delta(Before, stats());
}

} // namespace

//===----------------------------------------------------------------------===//
// Size classes and the block-index reciprocal
//===----------------------------------------------------------------------===//

TEST(HeapTest, SizeClassLadderCoversEveryRequest) {
  for (size_t Size = 0; Size <= kMaxSmallSize; ++Size) {
    unsigned Cls = sizeClassOf(Size);
    ASSERT_LT(Cls, kNumSizeClasses);
    // The class serves the request...
    EXPECT_GE(kSizeClasses[Cls], Size) << "size " << Size;
    // ...and is the tightest one that does.
    if (Cls > 0) {
      EXPECT_LT(kSizeClasses[Cls - 1], Size) << "size " << Size;
    }
  }
  // All classes are 16-byte multiples (the alignment guarantee).
  for (uint32_t B : kSizeClasses)
    EXPECT_EQ(B % 16, 0u);
}

TEST(HeapTest, BlockBytesRoundsToClassOrExactLarge) {
  EXPECT_EQ(blockBytesFor(1), kSizeClasses[0]);
  EXPECT_EQ(blockBytesFor(17), kSizeClasses[1]);
  EXPECT_EQ(blockBytesFor(kMaxSmallSize), size_t(kMaxSmallSize));
  EXPECT_EQ(blockBytesFor(kMaxSmallSize + 1), kMaxSmallSize + 1);
}

TEST(HeapTest, BlockIndexReciprocalIsExactForEveryClassAndOffset) {
  // The divide-free interior-pointer rounding relies on
  // (Off * Magic) >> 32 == Off / B for every offset that can occur inside
  // a slab. Check every 16-byte-aligned offset for every class — ~4k
  // offsets x 32 classes, cheap enough to do exhaustively.
  for (unsigned Cls = 0; Cls < kNumSizeClasses; ++Cls) {
    uint32_t B = kSizeClasses[Cls];
    uint64_t Magic = detail::blockIndexMagic(B);
    for (uint64_t Off = 0; Off < kSlabBytes; Off += 16) {
      uint64_t Got = (Off * Magic) >> 32;
      ASSERT_EQ(Got, Off / B) << "class " << B << " offset " << Off;
    }
  }
}

//===----------------------------------------------------------------------===//
// Alloc/free round-trips
//===----------------------------------------------------------------------===//

TEST(HeapTest, AllocateWritesReadBackAndAccountingBalances) {
  HeapStats Before = stats();
  constexpr int kBlocks = 256;
  constexpr size_t kSize = 48;
  std::vector<void *> Blocks;
  for (int I = 0; I < kBlocks; ++I) {
    void *P = allocate(kSize);
    ASSERT_NE(P, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % 16, 0u);
    std::memset(P, I & 0xFF, kSize);
    Blocks.push_back(P);
  }
  // Blocks are distinct and intact.
  for (int I = 0; I < kBlocks; ++I) {
    auto *Bytes = static_cast<unsigned char *>(Blocks[I]);
    for (size_t J = 0; J < kSize; ++J)
      ASSERT_EQ(Bytes[J], static_cast<unsigned char>(I & 0xFF));
  }
  HeapStats Mid = delta(Before);
  EXPECT_GE(Mid.BytesAllocated - Mid.BytesFreed,
            uint64_t(kBlocks) * blockBytesFor(kSize));
  for (void *P : Blocks)
    deallocate(P);
  HeapStats After = delta(Before);
  // Every byte handed out in this interval came back.
  EXPECT_EQ(After.BytesAllocated, After.BytesFreed);
  EXPECT_GE(After.SmallAllocs, uint64_t(kBlocks));
}

TEST(HeapTest, FreedBlocksAreReusedWithinAThread) {
  // Drain the bump window for an uncommon class, then check free->alloc
  // reuse: after freeing N blocks, allocating N more must not grow live
  // bytes beyond the starting level (the local free list serves them).
  constexpr size_t kSize = 3072;
  std::vector<void *> Blocks;
  for (int I = 0; I < 64; ++I)
    Blocks.push_back(allocate(kSize));
  HeapStats Before = stats();
  for (void *P : Blocks)
    deallocate(P);
  Blocks.clear();
  for (int I = 0; I < 64; ++I)
    Blocks.push_back(allocate(kSize));
  HeapStats D = delta(Before);
  EXPECT_EQ(D.BytesAllocated, D.BytesFreed); // net-zero live growth
  for (void *P : Blocks)
    deallocate(P);
}

TEST(HeapTest, DeallocateNullIsANoOp) {
  deallocate(nullptr);
}

TEST(HeapTest, AllocateAlignedHonorsAlignment) {
  for (size_t Align : {size_t(32), size_t(64), size_t(128), size_t(256)}) {
    void *P = allocateAligned(200, Align);
    ASSERT_NE(P, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % Align, 0u)
        << "align " << Align;
    std::memset(P, 0xAB, 200);
    deallocate(P);
  }
}

TEST(HeapTest, LargePathRoundTripsAndCounts) {
  HeapStats Before = stats();
  constexpr size_t kSize = 100 * 1024; // > kMaxSmallSize
  auto *P = static_cast<unsigned char *>(allocate(kSize));
  ASSERT_NE(P, nullptr);
  P[0] = 1;
  P[kSize - 1] = 2;
  HeapStats Mid = delta(Before);
  EXPECT_GE(Mid.LargeAllocs, 1u);
  EXPECT_GE(Mid.BytesAllocated, uint64_t(kSize));
  deallocate(P);
  HeapStats After = delta(Before);
  EXPECT_EQ(After.BytesAllocated, After.BytesFreed);
}

TEST(HeapTest, CreateDestroyRunsConstructorAndDestructor) {
  struct Probe {
    explicit Probe(int *Flag) : Flag(Flag) { *Flag = 1; }
    ~Probe() { *Flag = 2; }
    int *Flag;
  };
  int Flag = 0;
  Probe *P = create<Probe>(&Flag);
  EXPECT_EQ(Flag, 1);
  destroy(P);
  EXPECT_EQ(Flag, 2);
}

//===----------------------------------------------------------------------===//
// Cross-thread frees and thread exit
//===----------------------------------------------------------------------===//

TEST(HeapTest, CrossThreadFreeTakesRemotePathAndBalances) {
  HeapStats Before = stats();
  constexpr int kBlocks = 128;
  std::vector<void *> Blocks;
  for (int I = 0; I < kBlocks; ++I)
    Blocks.push_back(allocate(64));
  std::thread Freer([&] {
    for (void *P : Blocks)
      deallocate(P);
  });
  Freer.join();
  HeapStats D = delta(Before);
  EXPECT_GE(D.RemoteFrees, uint64_t(kBlocks));
  EXPECT_EQ(D.BytesAllocated, D.BytesFreed);
}

TEST(HeapTest, ExitedThreadSlabsAreAdoptedByReclaim) {
  // A thread allocates, frees everything locally, and exits: its slabs
  // are orphaned at its retirement epoch. A later reclaim pass (epoch
  // advanced past retirement) must adopt and recycle them.
  HeapStats Before = stats();
  std::thread Worker([] {
    std::vector<void *> Blocks;
    for (int I = 0; I < 2048; ++I)
      Blocks.push_back(allocate(256));
    for (void *P : Blocks)
      deallocate(P);
  });
  Worker.join();
  uint64_t E0 = epoch();
  reclaim(); // adopts orphans retired before the pass's new epoch
  reclaim(); // second pass catches any same-epoch stragglers
  EXPECT_GE(epoch(), E0 + 2);
  HeapStats D = delta(Before);
  EXPECT_EQ(D.BytesAllocated, D.BytesFreed);
  EXPECT_GE(D.ReclaimPasses, 2u);
  EXPECT_GE(D.OrphanSlabsAdopted + D.SlabsRecycled, 1u)
      << "the exited thread's slabs never came back";
}

TEST(HeapTest, FreeAfterOwnerExitIsSafe) {
  // Blocks allocated by a thread that has already exited must still be
  // freeable (the remote path: the orphaned slab's owner id matches no
  // live cache).
  void *Block = nullptr;
  std::thread Worker([&] { Block = allocate(512); });
  Worker.join();
  ASSERT_NE(Block, nullptr);
  HeapStats Before = stats();
  deallocate(Block);
  HeapStats D = delta(Before);
  EXPECT_GE(D.RemoteFrees, 1u);
  EXPECT_GE(D.BytesFreed, blockBytesFor(512));
}

//===----------------------------------------------------------------------===//
// Epochs, reclaim, stats
//===----------------------------------------------------------------------===//

TEST(HeapTest, EpochAdvancesMonotonicallyPerReclaim) {
  uint64_t E0 = epoch();
  reclaim();
  uint64_t E1 = epoch();
  reclaim();
  uint64_t E2 = epoch();
  EXPECT_GT(E1, E0);
  EXPECT_GT(E2, E1);
}

TEST(HeapTest, ReclaimRecordsPauses) {
  HeapStats Before = stats();
  reclaim();
  HeapStats D = delta(Before);
  EXPECT_GE(D.ReclaimPasses, 1u);
  // Total pause time advanced (the pass itself was timed).
  EXPECT_GT(D.ReclaimTotalNanos, 0u);
}

TEST(HeapTest, StatsDeltaGaugeSemantics) {
  HeapStats A;
  A.BytesAllocated = 100;
  A.SlabsInUse = 7;
  A.Epoch = 3;
  A.ReclaimMaxNanos = 50;
  HeapStats B = A;
  B.BytesAllocated = 250;
  B.SlabsInUse = 5;
  B.Epoch = 4;
  HeapStats D = HeapStats::delta(A, B);
  EXPECT_EQ(D.BytesAllocated, 150u); // counter: subtracts
  EXPECT_EQ(D.SlabsInUse, 5u);       // gauge: carries End
  EXPECT_EQ(D.Epoch, 4u);            // gauge: carries End
  EXPECT_EQ(D.ReclaimMaxNanos, 0u);  // high-water mark did not move
  B.ReclaimMaxNanos = 80;
  EXPECT_EQ(HeapStats::delta(A, B).ReclaimMaxNanos, 80u); // it moved
}

TEST(HeapTest, ThreadCacheRegistersOnFirstUse) {
  allocate(16); // ensure this thread's cache exists
  size_t Baseline = threadCacheCount();
  EXPECT_GE(Baseline, 1u);
  std::thread Worker([] { deallocate(allocate(16)); });
  Worker.join();
  // The worker's cache is retired but stays registered until a reclaim
  // pass folds it.
  EXPECT_GE(threadCacheCount(), Baseline);
  reclaim();
  reclaim();
  EXPECT_LE(threadCacheCount(), Baseline);
}

TEST(HeapTest, StlAllocatorBacksStdContainers) {
  HeapStats Before = stats();
  {
    std::vector<uint64_t, StlAllocator<uint64_t>> V;
    for (uint64_t I = 0; I < 10000; ++I)
      V.push_back(I);
    for (uint64_t I = 0; I < 10000; ++I)
      ASSERT_EQ(V[I], I);
  }
  HeapStats D = delta(Before);
  EXPECT_GT(D.BytesAllocated, 0u);
  EXPECT_EQ(D.BytesAllocated, D.BytesFreed);
}
