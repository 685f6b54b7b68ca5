//===- runtime/Heap.cpp - Managed slab-allocation substrate ---------------===//
//
// Part of Renaissance-C++, a reproduction of the PLDI'19 Renaissance paper.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"

#include "support/Check.h"
#include "support/Clock.h"
#include "trace/Trace.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

using namespace ren;
using namespace ren::runtime;
using namespace ren::runtime::heap;
using namespace ren::runtime::heap::detail;

namespace {

/// Slabs per carved region: 16 x 64KB = 1MB per system allocation.
constexpr size_t kRegionSlabs = 16;

/// Slab-table capacity: 64K slabs = a 4GB managed-heap ceiling, far above
/// anything the workloads reach. Fixed so the lock-free free-slab stack
/// can index into a never-reallocated table.
constexpr uint32_t kMaxSlabs = 1u << 16;

/// Index value marking the empty free-slab stack.
constexpr uint32_t kNilIdx = 0xFFFFFFFFu;

/// Orphan-slab backlog that triggers an opportunistic reclaim pass.
constexpr uint64_t kOrphanTrigger = 8;

/// One registered thread cache. The cache structure must outlive the
/// owning thread until a reclaim pass folds its stat cells, so entries
/// are shared between the registry and the thread's TLS holder
/// (mirroring how trace keeps retired buffers registered).
struct CacheEntry {
  ThreadCache TC;
  bool Retired = false;     ///< Registry-lock guarded.
  uint64_t RetireEpoch = 0; ///< Epoch at retirement (registry lock).
};

struct GlobalHeap {
  // -- Slab table + lock-free free stack -------------------------------
  Slab **SlabTable = new Slab *[kMaxSlabs]();
  std::atomic<uint32_t> *NextFree = new std::atomic<uint32_t>[kMaxSlabs]();
  std::atomic<uint32_t> SlabCount{0};
  /// Versioned head {version:32, index:32}: the version counter makes the
  /// Treiber pop immune to ABA (a recycled slab re-pushed between a
  /// popper's reads changes the version even if the index matches).
  std::atomic<uint64_t> FreeTop{(uint64_t(0) << 32) | kNilIdx};

  std::mutex RegionLock; ///< Serializes region carving (cold).

  // -- Registry --------------------------------------------------------
  std::mutex CachesLock;
  std::vector<std::shared_ptr<CacheEntry>> Caches;
  std::vector<Slab *> OrphanSlabs;
  std::atomic<uint64_t> OrphanCount{0};
  std::atomic<uint64_t> NextCacheId{0};
  /// Stat cells folded in from reclaimed (exited) caches; CachesLock.
  std::array<uint64_t, kNumCells> RetiredCells{};
  /// Fallback cells for threads without a cache (TLS teardown): real
  /// fetch_add, but only ever on cold paths.
  std::array<std::atomic<uint64_t>, kNumCells> UncachedCells{};

  // -- Reclamation -----------------------------------------------------
  std::mutex ReclaimLock;
  std::atomic<uint64_t> Epoch{0};

  // -- Global counters -------------------------------------------------
  std::atomic<uint64_t> RegionsAllocated{0};
  std::atomic<uint64_t> SlabsInUse{0};
  std::atomic<uint64_t> SlabsRecycled{0};
  std::atomic<uint64_t> OrphanSlabsAdopted{0};
  std::atomic<uint64_t> ReclaimPasses{0};
  std::atomic<uint64_t> ReclaimTotalNanos{0};
  std::atomic<uint64_t> ReclaimMaxNanos{0};
};

/// The process-wide heap state, leaked deliberately (like the metrics and
/// trace registries) so TLS destructors of any ordering can still reach it.
GlobalHeap &global() {
  static GlobalHeap *G = new GlobalHeap();
  return *G;
}

void pushFreeSlab(GlobalHeap &G, uint32_t Idx) {
  uint64_t Old = G.FreeTop.load(std::memory_order_relaxed);
  for (;;) {
    G.NextFree[Idx].store(static_cast<uint32_t>(Old), // old head index
                          std::memory_order_relaxed);
    uint64_t New = (((Old >> 32) + 1) << 32) | Idx;
    if (G.FreeTop.compare_exchange_weak(Old, New, std::memory_order_release,
                                        std::memory_order_relaxed))
      return;
  }
}

Slab *popFreeSlab(GlobalHeap &G) {
  uint64_t Old = G.FreeTop.load(std::memory_order_acquire);
  for (;;) {
    auto Idx = static_cast<uint32_t>(Old);
    if (Idx == kNilIdx)
      return nullptr;
    uint32_t Next = G.NextFree[Idx].load(std::memory_order_relaxed);
    uint64_t New = (((Old >> 32) + 1) << 32) | Next;
    if (G.FreeTop.compare_exchange_weak(Old, New, std::memory_order_acquire,
                                        std::memory_order_acquire))
      return G.SlabTable[Idx];
  }
}

/// Carves one region (16 slabs) from the system allocator and feeds the
/// free stack. RegionLock serializes carvers; a racing thread that lost
/// the pop may find slabs available again after this returns.
void carveRegion(GlobalHeap &G) {
  std::lock_guard<std::mutex> Lock(G.RegionLock);
  uint32_t Base = G.SlabCount.load(std::memory_order_relaxed);
  REN_CHECK(Base + kRegionSlabs <= kMaxSlabs,
            "managed heap exhausted its slab table");
  void *Mem = ::operator new(kRegionSlabs * kSlabBytes,
                             std::align_val_t(kSlabBytes));
  for (size_t I = 0; I < kRegionSlabs; ++I) {
    auto *S = ::new (static_cast<char *>(Mem) + I * kSlabBytes) Slab();
    S->Magic = kSlabMagic;
    S->SlabIndex = Base + static_cast<uint32_t>(I);
    G.SlabTable[S->SlabIndex] = S;
  }
  // Publish the table entries before any index becomes poppable.
  G.SlabCount.store(Base + kRegionSlabs, std::memory_order_release);
  for (size_t I = 0; I < kRegionSlabs; ++I)
    pushFreeSlab(G, Base + static_cast<uint32_t>(I));
  G.RegionsAllocated.fetch_add(1, std::memory_order_relaxed);
}

/// Drains a slab's remote-free stack into its local free list. Caller
/// must own the slab (or hold it orphaned under the reclaim protocol).
void harvest(Slab *S) {
  void *Remote = S->RemoteFree.exchange(nullptr, std::memory_order_acquire);
  while (Remote) {
    void *Next = *static_cast<void **>(Remote);
    *static_cast<void **>(Remote) = S->LocalFree;
    S->LocalFree = Remote;
    ++S->FreedLocal;
    Remote = Next;
  }
}

/// Syncs the bin's bump window back into its slab's Bump field (the
/// emptiness checks read Bump, the hot path only moves the window).
void syncBump(Bin &B) {
  if (!B.Current || !B.BumpPtr)
    return;
  B.Current->Bump = static_cast<uint32_t>(
      (B.BumpPtr - B.Current->data()) / B.Current->BlockBytes);
  B.BumpPtr = nullptr;
  B.BumpEnd = nullptr;
}

/// Returns a fully-free slab to the global pool.
void releaseToPool(GlobalHeap &G, Slab *S) {
  REN_CHECK(S->RemoteFree.load(std::memory_order_acquire) == nullptr,
            "recycling a slab with un-harvested remote frees");
  S->Owner.store(0, std::memory_order_release);
  S->LocalFree = nullptr;
  S->NextOwned = nullptr;
  S->Bump = 0;
  S->FreedLocal = 0;
  G.SlabsInUse.fetch_sub(1, std::memory_order_relaxed);
  G.SlabsRecycled.fetch_add(1, std::memory_order_relaxed);
  pushFreeSlab(G, S->SlabIndex);
}

/// Pops a pool slab (carving a region if the pool is dry) and initializes
/// it for \p ClassIdx under \p OwnerId.
Slab *acquireSlab(GlobalHeap &G, uint64_t OwnerId, unsigned ClassIdx) {
  Slab *S = popFreeSlab(G);
  while (!S) {
    carveRegion(G);
    S = popFreeSlab(G);
  }
  uint32_t Block = kSizeClasses[ClassIdx];
  S->ClassIdx = ClassIdx;
  S->BlockBytes = Block;
  S->BlockMagic = blockIndexMagic(Block);
  S->Capacity = static_cast<uint32_t>((kSlabBytes - kSlabHeaderBytes) / Block);
  S->Bump = 0;
  S->FreedLocal = 0;
  S->LocalFree = nullptr;
  S->NextOwned = nullptr;
  S->Owner.store(OwnerId, std::memory_order_release);
  G.SlabsInUse.fetch_add(1, std::memory_order_relaxed);
  return S;
}

uint64_t reclaimLocked(GlobalHeap &G);

/// Opportunistic reclaim: runs a pass only if no other thread is already
/// in one.
void tryReclaim(GlobalHeap &G) {
  std::unique_lock<std::mutex> Lock(G.ReclaimLock, std::try_to_lock);
  if (Lock.owns_lock())
    reclaimLocked(G);
}

/// TLS anchor: registers the thread cache on construction, retires it on
/// thread exit (orphaning its slabs into the reclaim pipeline).
struct CacheHolder {
  std::shared_ptr<CacheEntry> Entry;

  CacheHolder() {
    GlobalHeap &G = global();
    Entry = std::make_shared<CacheEntry>();
    Entry->TC.Id = G.NextCacheId.fetch_add(1, std::memory_order_relaxed) + 1;
    std::lock_guard<std::mutex> Lock(G.CachesLock);
    G.Caches.push_back(Entry);
    TlsCache = &Entry->TC;
  }

  ~CacheHolder() {
    GlobalHeap &G = global();
    ThreadCache &TC = Entry->TC;
    // Owner-side cursor write-back happens before the lock: these are the
    // thread's own plain fields, and the mutex release below is what
    // publishes them to future adopters.
    for (Bin &B : TC.Bins)
      syncBump(B);
    TlsCache = nullptr;
    TlsRetired = true;
    std::lock_guard<std::mutex> Lock(G.CachesLock);
    uint64_t E = G.Epoch.load(std::memory_order_relaxed);
    for (Bin &B : TC.Bins) {
      for (Slab *S = B.Owned; S;) {
        Slab *Next = S->NextOwned;
        S->NextOwned = nullptr;
        S->RetireEpoch = E;
        S->Owner.store(0, std::memory_order_release);
        G.OrphanSlabs.push_back(S);
        G.OrphanCount.fetch_add(1, std::memory_order_relaxed);
        S = Next;
      }
      B.Owned = nullptr;
      B.Current = nullptr;
    }
    Entry->Retired = true;
    Entry->RetireEpoch = E;
  }
};

ThreadCache *registerCache() {
  if (TlsRetired)
    return nullptr;
  static thread_local CacheHolder Holder;
  return TlsCache;
}

uint64_t reclaimLocked(GlobalHeap &G) {
  uint64_t Start = wallNanos();
  uint64_t E = G.Epoch.fetch_add(1, std::memory_order_acq_rel) + 1;

  // Orphan slabs and retired caches, one epoch after retirement (the
  // trace exited-buffer protocol, generalized).
  uint64_t Recycled = 0;
  {
    std::lock_guard<std::mutex> Lock(G.CachesLock);
    for (size_t I = 0; I < G.OrphanSlabs.size();) {
      Slab *S = G.OrphanSlabs[I];
      if (S->RetireEpoch >= E) {
        ++I;
        continue;
      }
      harvest(S);
      if (S->Bump == S->FreedLocal) {
        releaseToPool(G, S);
        G.OrphanSlabsAdopted.fetch_add(1, std::memory_order_relaxed);
        G.OrphanCount.fetch_sub(1, std::memory_order_relaxed);
        ++Recycled;
        G.OrphanSlabs[I] = G.OrphanSlabs.back();
        G.OrphanSlabs.pop_back();
      } else {
        ++I;
      }
    }
    for (size_t I = 0; I < G.Caches.size();) {
      CacheEntry &En = *G.Caches[I];
      if (En.Retired && En.RetireEpoch < E) {
        for (unsigned C = 0; C < kNumCells; ++C)
          G.RetiredCells[C] +=
              En.TC.Cells[C].load(std::memory_order_relaxed);
        G.Caches[I] = std::move(G.Caches.back());
        G.Caches.pop_back();
      } else {
        ++I;
      }
    }
  }

  uint64_t Pause = wallNanos() - Start;
  G.ReclaimPasses.fetch_add(1, std::memory_order_relaxed);
  G.ReclaimTotalNanos.fetch_add(Pause, std::memory_order_relaxed);
  uint64_t Max = G.ReclaimMaxNanos.load(std::memory_order_relaxed);
  while (Pause > Max &&
         !G.ReclaimMaxNanos.compare_exchange_weak(Max, Pause,
                                                  std::memory_order_relaxed))
    ;
  trace::span(trace::EventKind::HeapReclaim, "heap.reclaim", Start, Pause,
              /*A=*/Recycled);
  return Pause;
}

} // namespace

//===----------------------------------------------------------------------===//
// detail entry points
//===----------------------------------------------------------------------===//

namespace ren {
namespace runtime {
namespace heap {
namespace detail {

thread_local ThreadCache *TlsCache = nullptr;
thread_local bool TlsRetired = false;

void bumpUncached(Cell C, uint64_t N) {
  global().UncachedCells[static_cast<unsigned>(C)].fetch_add(
      N, std::memory_order_relaxed);
}

void *allocateSlow(unsigned ClassIdx) {
  GlobalHeap &G = global();
  ThreadCache *TC = TlsCache;
  if (!TC) {
    TC = registerCache();
    if (!TC) // TLS teardown: headered large block, no cache needed.
      return allocateLarge(kSizeClasses[ClassIdx]);
  }
  if ((++TC->SlowPaths & 63u) == 0 &&
      G.OrphanCount.load(std::memory_order_relaxed) >= kOrphanTrigger)
    tryReclaim(G);

  Bin &B = TC->Bins[ClassIdx];
  syncBump(B);

  // Sweep this class's owned slabs: harvest remote frees, reset any slab
  // that became fully free, pick the first usable one, and return surplus
  // fully-free slabs to the global pool.
  Slab *Chosen = nullptr;
  Slab **Link = &B.Owned;
  while (Slab *S = *Link) {
    harvest(S);
    if (S->Bump != 0 && S->Bump == S->FreedLocal) {
      // Every carved block is back on the local list: forget the list
      // and restart the bump cursor — equivalent, and bump-serveable.
      S->Bump = 0;
      S->FreedLocal = 0;
      S->LocalFree = nullptr;
    }
    if (!Chosen && (S->LocalFree || S->Bump < S->Capacity)) {
      Chosen = S;
      Link = &S->NextOwned;
      continue;
    }
    if (Chosen && S->Bump == 0 && !S->LocalFree) {
      *Link = S->NextOwned; // unlink surplus empty slab, keep Link put
      releaseToPool(G, S);
      continue;
    }
    Link = &S->NextOwned;
  }
  if (!Chosen) {
    Chosen = acquireSlab(G, TC->Id, ClassIdx);
    Chosen->NextOwned = B.Owned;
    B.Owned = Chosen;
  }
  B.Current = Chosen;

  TC->bump(Cell::SmallAllocs);
  TC->bump(Cell::BytesAllocated, Chosen->BlockBytes);
  if (Chosen->LocalFree) {
    void *Block = Chosen->LocalFree;
    Chosen->LocalFree = *static_cast<void **>(Block);
    --Chosen->FreedLocal;
    return Block;
  }
  char *Base = Chosen->data() + size_t(Chosen->Bump) * Chosen->BlockBytes;
  B.BumpPtr = Base + Chosen->BlockBytes;
  B.BumpEnd = Chosen->data() + size_t(Chosen->Capacity) * Chosen->BlockBytes;
  return Base;
}

void *allocateLarge(size_t Size) {
  size_t Total = kSlabHeaderBytes + Size;
  void *Mem = ::operator new(Total, std::align_val_t(kSlabBytes));
  auto *S = ::new (Mem) Slab();
  S->Magic = kSlabMagic;
  S->ClassIdx = kLargeClassIdx;
  S->LargeBytes = Size;
  statBump(Cell::LargeAllocs);
  statBump(Cell::BytesAllocated, Size);
  return static_cast<char *>(Mem) + kSlabHeaderBytes;
}

void deallocateLarge(Slab *S) {
  statBump(Cell::BytesFreed, S->LargeBytes);
  S->Magic = 0; // poison: double frees trip badFree, not silent reuse
  S->~Slab();
  ::operator delete(S, std::align_val_t(kSlabBytes));
}

void deallocateRemote(Slab *S, void *Block) {
  statBump(Cell::RemoteFrees);
  statBump(Cell::BytesFreed, S->BlockBytes);
  void *Head = S->RemoteFree.load(std::memory_order_relaxed);
  do {
    *static_cast<void **>(Block) = Head;
  } while (!S->RemoteFree.compare_exchange_weak(Head, Block,
                                                std::memory_order_release,
                                                std::memory_order_relaxed));
}

void badFree(void *Ptr) {
  std::fprintf(stderr,
               "heap::deallocate: %p is not a live managed-heap block\n",
               Ptr);
  std::abort();
}

} // namespace detail

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

void *allocateAligned(size_t Size, size_t Align) {
  REN_CHECK((Align & (Align - 1)) == 0, "alignment must be a power of two");
  if (Align <= 16)
    return allocate(Size);
  // Blocks sit at kSlabHeaderBytes + idx*B from a 64KB-aligned base, so a
  // multiple-of-Align class only yields aligned blocks while Align also
  // divides the header offset (Align <= 128).
  if (Size <= kMaxSmallSize && Align <= kSlabHeaderBytes)
    for (unsigned C = sizeClassOf(Size); C < kNumSizeClasses; ++C)
      if (kSizeClasses[C] % Align == 0)
        return allocate(kSizeClasses[C]);
  // Large path: the payload sits kSlabHeaderBytes past a 64KB-aligned
  // base, which satisfies any Align <= 128; beyond that, pad the header.
  if (Align <= kSlabHeaderBytes)
    return detail::allocateLarge(Size);
  size_t Offset = (kSlabHeaderBytes + Align - 1) & ~(Align - 1);
  size_t Total = Offset + Size;
  void *Mem = ::operator new(Total, std::align_val_t(kSlabBytes));
  auto *S = ::new (Mem) detail::Slab();
  S->Magic = detail::kSlabMagic;
  S->ClassIdx = kLargeClassIdx;
  S->LargeBytes = Size;
  detail::statBump(detail::Cell::LargeAllocs);
  detail::statBump(detail::Cell::BytesAllocated, Size);
  return static_cast<char *>(Mem) + Offset;
}

uint64_t reclaim() {
  GlobalHeap &G = global();
  std::lock_guard<std::mutex> Lock(G.ReclaimLock);
  return reclaimLocked(G);
}

uint64_t epoch() { return global().Epoch.load(std::memory_order_acquire); }

size_t threadCacheCount() {
  GlobalHeap &G = global();
  std::lock_guard<std::mutex> Lock(G.CachesLock);
  return G.Caches.size();
}

HeapStats stats() {
  GlobalHeap &G = global();
  std::array<uint64_t, detail::kNumCells> Cells{};
  {
    std::lock_guard<std::mutex> Lock(G.CachesLock);
    for (unsigned C = 0; C < detail::kNumCells; ++C)
      Cells[C] = G.RetiredCells[C] +
                 G.UncachedCells[C].load(std::memory_order_relaxed);
    for (const auto &Entry : G.Caches)
      for (unsigned C = 0; C < detail::kNumCells; ++C)
        Cells[C] += Entry->TC.Cells[C].load(std::memory_order_relaxed);
  }
  HeapStats S;
  auto Cell = [&Cells](detail::Cell C) {
    return Cells[static_cast<unsigned>(C)];
  };
  S.BytesAllocated = Cell(detail::Cell::BytesAllocated);
  S.BytesFreed = Cell(detail::Cell::BytesFreed);
  S.ArrayBytes = Cell(detail::Cell::ArrayBytes);
  S.SmallAllocs = Cell(detail::Cell::SmallAllocs);
  S.LargeAllocs = Cell(detail::Cell::LargeAllocs);
  S.RemoteFrees = Cell(detail::Cell::RemoteFrees);
  S.RegionsAllocated = G.RegionsAllocated.load(std::memory_order_relaxed);
  S.SlabsInUse = G.SlabsInUse.load(std::memory_order_relaxed);
  S.SlabsRecycled = G.SlabsRecycled.load(std::memory_order_relaxed);
  S.OrphanSlabsAdopted = G.OrphanSlabsAdopted.load(std::memory_order_relaxed);
  S.ReclaimPasses = G.ReclaimPasses.load(std::memory_order_relaxed);
  S.ReclaimTotalNanos = G.ReclaimTotalNanos.load(std::memory_order_relaxed);
  S.ReclaimMaxNanos = G.ReclaimMaxNanos.load(std::memory_order_relaxed);
  S.Epoch = G.Epoch.load(std::memory_order_relaxed);
  return S;
}

HeapStats HeapStats::delta(const HeapStats &Begin, const HeapStats &End) {
  HeapStats D;
  D.BytesAllocated = End.BytesAllocated - Begin.BytesAllocated;
  D.BytesFreed = End.BytesFreed - Begin.BytesFreed;
  D.ArrayBytes = End.ArrayBytes - Begin.ArrayBytes;
  D.SmallAllocs = End.SmallAllocs - Begin.SmallAllocs;
  D.LargeAllocs = End.LargeAllocs - Begin.LargeAllocs;
  D.RemoteFrees = End.RemoteFrees - Begin.RemoteFrees;
  D.RegionsAllocated = End.RegionsAllocated - Begin.RegionsAllocated;
  D.SlabsInUse = End.SlabsInUse; // gauge
  D.SlabsRecycled = End.SlabsRecycled - Begin.SlabsRecycled;
  D.OrphanSlabsAdopted = End.OrphanSlabsAdopted - Begin.OrphanSlabsAdopted;
  D.ReclaimPasses = End.ReclaimPasses - Begin.ReclaimPasses;
  D.ReclaimTotalNanos = End.ReclaimTotalNanos - Begin.ReclaimTotalNanos;
  D.ReclaimMaxNanos =
      End.ReclaimMaxNanos != Begin.ReclaimMaxNanos ? End.ReclaimMaxNanos : 0;
  D.Epoch = End.Epoch; // gauge
  return D;
}

} // namespace heap
} // namespace runtime
} // namespace ren
