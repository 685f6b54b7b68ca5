//===- runtime/Heap.h - Managed slab-allocation substrate ------*- C++ -*-===//
//
// Part of Renaissance-C++, a reproduction of the PLDI'19 Renaissance paper.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A managed allocation substrate for the instrumented runtime.
///
/// The paper's allocation-heavy workloads (the DaCapo/ScalaBench analogues,
/// dotty, kvstore) run against a JVM heap, not glibc malloc; this layer
/// gives `newObject`/`newShared`/`newArray` (runtime/Alloc.h) a memory
/// manager of their own with GC-like observability: per-thread size-class
/// slab allocation, epoch-based deferred reclamation for the blocks and
/// slabs of exited threads, and a `HeapStats` snapshot (bytes live/allocated,
/// slab occupancy, reclaim pauses) surfaced through the harness
/// GcPausePlugin.
///
/// Design constraints, in priority order:
///
///  1. *No lock on the hot path.* Allocation is a thread-local bump
///     pointer with a single compare (then a second branch for the
///     slab-local free list); same-thread free is two plain stores. Both
///     touch only memory the calling thread owns.
///  2. *Cross-thread free never blocks the owner.* A block freed by a
///     non-owning thread is CAS-pushed onto the slab's remote-free stack
///     (push-only Treiber stack, so there is no ABA window); the owner
///     harvests the whole stack with one `exchange` on its allocation
///     slow path.
///  3. *Memory of exited threads is reclaimed, but only epochs later.*
///     Thread exit orphans the thread's slabs (generalizing the
///     exited-thread buffer scheme `src/trace` uses): a reclaim pass
///     adopts orphans only once the global epoch has advanced past their
///     retirement epoch, harvests their remote-free stacks, and recycles
///     slabs whose every carved block has been freed. Empty-slab recycling
///     goes through a lock-free versioned index stack shared process-wide.
///  4. *Everything is observable.* Per-thread single-writer stat cells
///     (the `metrics::CounterCell` pattern) fold into `heap::stats()`;
///     reclaim passes are timed as GC pauses (max/total) and emit
///     `trace::EventKind::HeapReclaim` spans.
///
//===----------------------------------------------------------------------===//

#ifndef REN_RUNTIME_HEAP_H
#define REN_RUNTIME_HEAP_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

namespace ren {
namespace runtime {
namespace heap {

//===----------------------------------------------------------------------===//
// Size classes
//===----------------------------------------------------------------------===//

/// Slab granule: every slab (and every large-allocation header block) is
/// 64KB-aligned, so the owning header of any block is one mask away.
inline constexpr size_t kSlabBytes = size_t(1) << 16;

/// Bytes reserved at the front of each slab for its header; block 0
/// starts here. Two cache lines, so 64-byte-aligned classes stay aligned.
inline constexpr size_t kSlabHeaderBytes = 128;

/// Largest size served from size-class slabs; bigger requests get a
/// dedicated 64KB-aligned header block from the system allocator.
inline constexpr size_t kMaxSmallSize = 8192;

/// jemalloc-style size-class ladder: 16-byte steps up to 128, then four
/// classes per power of two. All classes are multiples of 16.
inline constexpr std::array<uint32_t, 32> kSizeClasses = {
    16,   32,   48,   64,   80,   96,   112,  128,  160,  192,  224,
    256,  320,  384,  448,  512,  640,  768,  896,  1024, 1280, 1536,
    1792, 2048, 2560, 3072, 3584, 4096, 5120, 6144, 7168, 8192};

inline constexpr unsigned kNumSizeClasses =
    static_cast<unsigned>(kSizeClasses.size());

/// ClassIdx value marking a large-allocation header (not a slab).
inline constexpr uint32_t kLargeClassIdx = 0xFFFFFFFFu;

namespace detail {

/// Size -> class lookup table, one entry per 16-byte granule.
constexpr auto makeClassTable() {
  std::array<uint8_t, (kMaxSmallSize >> 4) + 1> Table{};
  unsigned Cls = 0;
  for (size_t I = 0; I < Table.size(); ++I) {
    while (kSizeClasses[Cls] < (I << 4))
      ++Cls;
    Table[I] = static_cast<uint8_t>(Cls);
  }
  return Table;
}
inline constexpr auto kClassTable = makeClassTable();

/// Multiply-shift reciprocal for dividing a block offset by \p BlockBytes:
/// with Magic = ceil(2^32 / B), idx = (Off * Magic) >> 32 is exact for all
/// Off < 2^16 and B <= 8192 (error term e = Magic*B - 2^32 < B, and
/// Off*e/2^32 < 1/B, too small to carry the floor). HeapTest verifies this
/// exhaustively for every class.
constexpr uint64_t blockIndexMagic(uint32_t BlockBytes) {
  return ((uint64_t(1) << 32) + BlockBytes - 1) / BlockBytes;
}

} // namespace detail

/// The size class serving a request of \p Size bytes (Size must be
/// <= kMaxSmallSize). Class 0 also serves zero-byte requests.
constexpr unsigned sizeClassOf(size_t Size) {
  return detail::kClassTable[(Size + 15) >> 4];
}

/// The rounded block size a request of \p Size bytes actually occupies
/// (the size class's block size, or \p Size itself on the large path).
/// This is the unit `BytesAllocated`/`BytesFreed` account in.
constexpr size_t blockBytesFor(size_t Size) {
  return Size > kMaxSmallSize ? Size : kSizeClasses[sizeClassOf(Size)];
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

/// A point-in-time aggregate of the heap's counters: per-thread cells
/// (live and retired) folded with the global gauges. Monotonic counters
/// unless noted; see \c delta for interval semantics.
struct HeapStats {
  uint64_t BytesAllocated = 0; ///< Block bytes handed out (rounded).
  uint64_t BytesFreed = 0;     ///< Block bytes returned (rounded).
  uint64_t ArrayBytes = 0;     ///< Payload bytes noted by newArray.
  uint64_t SmallAllocs = 0;    ///< Slab-path allocations.
  uint64_t LargeAllocs = 0;    ///< Dedicated-block allocations.
  uint64_t RemoteFrees = 0;    ///< Frees routed cross-thread.
  uint64_t RegionsAllocated = 0; ///< 1MB regions carved from the system.
  uint64_t SlabsInUse = 0;     ///< Gauge: slabs currently owned/orphaned.
  uint64_t SlabsRecycled = 0;  ///< Empty slabs returned to the pool.
  uint64_t OrphanSlabsAdopted = 0; ///< Orphans recycled by reclaim passes.
  uint64_t ReclaimPasses = 0;
  uint64_t ReclaimTotalNanos = 0;
  uint64_t ReclaimMaxNanos = 0; ///< All-time max pause (see delta()).
  uint64_t Epoch = 0;          ///< Gauge: current reclamation epoch.

  /// Bytes currently live (allocated minus freed, in rounded block bytes).
  uint64_t bytesLive() const { return BytesAllocated - BytesFreed; }

  /// Live bytes as a percentage of the slab space currently in use; 0
  /// when no slabs are held.
  double slabOccupancyPercent() const {
    if (SlabsInUse == 0)
      return 0.0;
    return 100.0 * static_cast<double>(bytesLive()) /
           static_cast<double>(SlabsInUse * kSlabBytes);
  }

  /// Interval stats between two snapshots: counters subtract; the gauges
  /// (SlabsInUse, Epoch) carry End's value. ReclaimMaxNanos is an
  /// all-time high-water mark, so the delta reports it only when the
  /// interval advanced it (else 0): a nonzero value means "the longest
  /// pause ever happened in this interval, and was this long".
  static HeapStats delta(const HeapStats &Begin, const HeapStats &End);
};

/// Snapshot of the heap counters. Takes the registry lock (cold).
HeapStats stats();

//===----------------------------------------------------------------------===//
// Internal structures (exposed for the inline fast paths, like
// metrics::detail)
//===----------------------------------------------------------------------===//

namespace detail {

inline constexpr uint32_t kSlabMagic = 0x52454E48u; // "RENH"

/// Per-thread stat counter indexes (single-writer cells).
enum class Cell : unsigned {
  BytesAllocated,
  BytesFreed,
  ArrayBytes,
  SmallAllocs,
  LargeAllocs,
  RemoteFrees,
};
inline constexpr unsigned kNumCells = 6;

/// The header at the base of every 64KB slab (and of every large block).
/// Field ownership:
///  - owner-only plain fields (Bump, LocalFree, FreedLocal, NextOwned):
///    written by the owning thread while the slab is owned; after
///    orphaning, only by the reclaim pass (ownership handed over through
///    the registry mutex).
///  - atomics (Owner, RemoteFree): touched cross-thread.
struct alignas(kSlabHeaderBytes) Slab {
  uint32_t Magic = 0;        ///< kSlabMagic; guards deallocate().
  uint32_t ClassIdx = 0;     ///< Size class, or kLargeClassIdx.
  uint32_t BlockBytes = 0;   ///< Block size (class size).
  uint32_t Capacity = 0;     ///< Blocks this slab can carve.
  uint64_t BlockMagic = 0;   ///< Reciprocal of BlockBytes (interior ptrs).
  uint64_t LargeBytes = 0;   ///< Large path: accounted payload bytes.
  /// Owning thread-cache id; 0 = orphaned (or pool-resident). Ids are
  /// never reused, so a stale id can never falsely match a live thread.
  std::atomic<uint64_t> Owner{0};
  /// Blocks freed by non-owning threads: push-only Treiber stack, drained
  /// wholesale by the owner (exchange), so there is no ABA window.
  std::atomic<void *> RemoteFree{nullptr};
  uint32_t Bump = 0;         ///< Blocks carved so far (cursor write-back).
  /// Blocks currently on LocalFree (harvest folds remote frees in here,
  /// so `Bump == FreedLocal` means every carved block is free and no
  /// in-flight remote free can be holding a live pointer — in-flight
  /// frees are by definition not yet counted, keeping recycling safe).
  uint32_t FreedLocal = 0;
  uint32_t SlabIndex = 0;    ///< Index in the global slab table.
  void *LocalFree = nullptr; ///< Owner-side free list (plain).
  Slab *NextOwned = nullptr; ///< Owner's per-class slab list.
  uint64_t RetireEpoch = 0;  ///< Epoch when orphaned (registry lock).

  char *data() { return reinterpret_cast<char *>(this) + kSlabHeaderBytes; }

  /// Block index of (possibly interior) pointer \p Ptr via the
  /// multiply-shift reciprocal; exact for every in-slab offset.
  uint32_t blockIndexOf(const void *Ptr) const {
    auto Off = static_cast<uint32_t>(
        reinterpret_cast<const char *>(Ptr) -
        (reinterpret_cast<const char *>(this) + kSlabHeaderBytes));
    return static_cast<uint32_t>((Off * BlockMagic) >> 32);
  }
};
static_assert(sizeof(Slab) <= kSlabHeaderBytes,
              "slab header must fit in the reserved prefix");

/// One size class's thread-local allocation state. The bump window
/// (BumpPtr/BumpEnd) is the hot-path cursor over Current's unused tail;
/// Current's Bump field is only synced on the slow path.
struct Bin {
  char *BumpPtr = nullptr;
  char *BumpEnd = nullptr;
  Slab *Current = nullptr; ///< Slab the bump window points into.
  Slab *Owned = nullptr;   ///< All owned slabs of this class.
};

/// Per-thread allocation cache: bins plus the thread's stat cell. Stats
/// are single-writer relaxed atomics (plain load+store bumps, the
/// metrics::CounterCell pattern) so stats() can read them racily-but-
/// clean while the owner keeps counting.
struct ThreadCache {
  std::array<Bin, kNumSizeClasses> Bins{};
  std::array<std::atomic<uint64_t>, kNumCells> Cells{};
  uint64_t Id = 0;          ///< Never-reused owner id (1-based).
  unsigned SlowPaths = 0;   ///< Slow-path counter (reclaim pacing).

  void bump(Cell C, uint64_t N = 1) {
    auto &Slot = Cells[static_cast<unsigned>(C)];
    Slot.store(Slot.load(std::memory_order_relaxed) + N,
               std::memory_order_relaxed);
  }
};

/// The calling thread's cache, or nullptr before first registration /
/// after TLS retirement. Registration happens on the allocation slow
/// path; a retired thread falls back to the large-block path, which
/// needs no cache.
extern thread_local ThreadCache *TlsCache;
extern thread_local bool TlsRetired;

/// Out-of-line slow paths (Heap.cpp).
void *allocateSlow(unsigned ClassIdx);
void *allocateLarge(size_t Size);
void deallocateLarge(Slab *Header);
void deallocateRemote(Slab *Owner, void *Block);
[[noreturn]] void badFree(void *Ptr);

/// The slab whose header owns \p Ptr (valid for slab blocks and large
/// blocks alike: both live at a 64KB-aligned header).
inline Slab *slabOf(const void *Ptr) {
  return reinterpret_cast<Slab *>(reinterpret_cast<uintptr_t>(Ptr) &
                                  ~(kSlabBytes - 1));
}

/// Bumps a per-thread stat cell, or the global fallback cell when the
/// thread has no cache (TLS teardown).
void bumpUncached(Cell C, uint64_t N);
inline void statBump(Cell C, uint64_t N = 1) {
  if (ThreadCache *TC = TlsCache)
    TC->bump(C, N);
  else
    bumpUncached(C, N);
}

} // namespace detail

//===----------------------------------------------------------------------===//
// Allocation API
//===----------------------------------------------------------------------===//

/// Allocates \p Size bytes (16-byte aligned). The hot path is a TLS load,
/// a table lookup and one bump-pointer compare; refills, harvesting and
/// region carving happen out of line.
inline void *allocate(size_t Size) {
  if (Size > kMaxSmallSize)
    return detail::allocateLarge(Size);
  unsigned Cls = sizeClassOf(Size);
  if (detail::ThreadCache *TC = detail::TlsCache) {
    detail::Bin &B = TC->Bins[Cls];
    if (B.BumpPtr != B.BumpEnd) {
      void *Block = B.BumpPtr;
      B.BumpPtr += kSizeClasses[Cls];
      TC->bump(detail::Cell::SmallAllocs);
      TC->bump(detail::Cell::BytesAllocated, kSizeClasses[Cls]);
      return Block;
    }
    if (detail::Slab *S = B.Current; S && S->LocalFree) {
      void *Block = S->LocalFree;
      S->LocalFree = *static_cast<void **>(Block);
      --S->FreedLocal;
      TC->bump(detail::Cell::SmallAllocs);
      TC->bump(detail::Cell::BytesAllocated, kSizeClasses[Cls]);
      return Block;
    }
  }
  return detail::allocateSlow(Cls);
}

/// Allocates \p Size bytes aligned to \p Align (a power of two). For
/// Align <= 16 this is plain \c allocate; larger alignments pick the
/// smallest size class that is a multiple of Align, or fall back to the
/// large path (whose 64KB-aligned blocks can host any offset).
void *allocateAligned(size_t Size, size_t Align);

/// Returns a block obtained from \c allocate / \c allocateAligned.
/// Interior pointers (e.g. a base-class subobject at a nonzero offset)
/// are rounded down to their block start. Safe from any thread; the
/// non-owning path is one CAS push.
inline void deallocate(void *Ptr) {
  if (!Ptr)
    return;
  detail::Slab *S = detail::slabOf(Ptr);
  if (S->Magic != detail::kSlabMagic)
    detail::badFree(Ptr);
  if (S->ClassIdx == kLargeClassIdx)
    return detail::deallocateLarge(S);
  void *Block = S->data() + size_t(S->blockIndexOf(Ptr)) * S->BlockBytes;
  detail::ThreadCache *TC = detail::TlsCache;
  if (TC && S->Owner.load(std::memory_order_relaxed) == TC->Id) {
    *static_cast<void **>(Block) = S->LocalFree;
    S->LocalFree = Block;
    ++S->FreedLocal;
    TC->bump(detail::Cell::BytesFreed, S->BlockBytes);
    return;
  }
  detail::deallocateRemote(S, Block);
}

/// Constructs a \p T in heap storage (uncounted: callers note metrics
/// themselves, mirroring how intrusive nodes were counted before).
template <typename T, typename... ArgTs> T *create(ArgTs &&...Args) {
  void *Mem = alignof(T) <= 16 ? allocate(sizeof(T))
                               : allocateAligned(sizeof(T), alignof(T));
  return ::new (Mem) T(std::forward<ArgTs>(Args)...);
}

/// Destroys and frees an object obtained from \c create.
template <typename T> void destroy(T *Obj) {
  if (!Obj)
    return;
  Obj->~T();
  deallocate(Obj);
}

/// Notes \p Bytes of array payload (newArray attribution; satellite 2).
inline void noteArrayBytes(uint64_t Bytes) {
  detail::statBump(detail::Cell::ArrayBytes, Bytes);
}

/// An std::allocator-compatible handle over the heap, so standard
/// containers (and allocate_shared control blocks) draw from the
/// substrate. Stateless; all instances are interchangeable.
template <typename T> struct StlAllocator {
  using value_type = T;

  StlAllocator() = default;
  template <typename U> StlAllocator(const StlAllocator<U> &) {}

  T *allocate(size_t N) {
    size_t Bytes = N * sizeof(T);
    void *Mem = alignof(T) <= 16 ? heap::allocate(Bytes)
                                 : heap::allocateAligned(Bytes, alignof(T));
    return static_cast<T *>(Mem);
  }
  void deallocate(T *Ptr, size_t) { heap::deallocate(Ptr); }

  friend bool operator==(const StlAllocator &, const StlAllocator &) {
    return true;
  }
  friend bool operator!=(const StlAllocator &, const StlAllocator &) {
    return false;
  }
};

//===----------------------------------------------------------------------===//
// Reclamation
//===----------------------------------------------------------------------===//

/// Runs one reclaim pass ("GC pause"): adopts orphan slabs whose retirement epoch has passed, harvests their
/// remote-free stacks, recycles empty slabs, and folds the stat cells of
/// exited threads. Advances the epoch. Serialized on a reclaim lock;
/// safe to call concurrently with allocation on every other thread.
/// \returns the pause duration in nanoseconds.
uint64_t reclaim();

/// The current reclamation epoch (bumped by every reclaim pass).
uint64_t epoch();

/// Number of thread caches currently registered (live + retired awaiting
/// reclaim). Test hook.
size_t threadCacheCount();

} // namespace heap
} // namespace runtime
} // namespace ren

#endif // REN_RUNTIME_HEAP_H
