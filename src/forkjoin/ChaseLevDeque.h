//===- forkjoin/ChaseLevDeque.h - Lock-free work-stealing deque -*- C++ -*-===//
//
// Part of Renaissance-C++, a reproduction of the PLDI'19 Renaissance paper.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dynamically-growing Chase–Lev work-stealing deque (Chase & Lev,
/// "Dynamic Circular Work-Stealing Deque", SPAA'05) with the C11 memory
/// orderings of Lê, Pop, Cohen & Zappa Nardelli ("Correct and Efficient
/// Work-Stealing for Weak Memory Models", PPoPP'13).
///
/// One thread — the owner — pushes and pops at the bottom in LIFO order;
/// any number of thieves steal from the top in FIFO order. The owner's
/// push/pop are CAS-free except when the deque holds a single element,
/// where owner and thieves race on one compare-exchange over Top. This is
/// the substrate java.util.concurrent.ForkJoinPool hides inside its
/// WorkQueue; like the VM-internal deque it models, it is deliberately
/// *not* routed through the counted runtime::Atomic wrappers — the paper's
/// instrumentation does not observe the pool's own bookkeeping.
///
/// Memory-ordering argument (the load-bearing subtleties; DESIGN.md §9
/// carries the longer version):
///
///  - push: the element store is relaxed but sequenced before a release
///    fence and the relaxed Bottom store. A thief that observes the new
///    Bottom through its acquire load sees the element store.
///  - pop: Bottom is lowered with a relaxed store, then a seq_cst fence
///    orders that store before the Top load. Symmetrically, steal's
///    seq_cst fence orders its Top read before its Bottom read. These two
///    fences are what prevents the owner and a thief from both taking the
///    *last* element without noticing each other: in any interleaving at
///    least one of them observes the other's index update and falls into
///    the CAS on Top, which arbitrates.
///  - steal: the buffer pointer and the element are read *before* the
///    claiming CAS on Top; the element is only used if that CAS wins.
///    A lost CAS means the slot was concurrently taken and the read value
///    is discarded (returned as Aborted, never dereferenced).
///  - grow: the owner allocates a ring of twice the capacity, copies the
///    live window [Top, Bottom), and publishes it with a release store of
///    the buffer pointer. Retired rings are kept on a chain owned by the
///    deque and freed only in the destructor, so a thief that loaded the
///    old ring pointer can still safely read a slot from it: the slot's
///    content at any index < the Bottom it observed is unchanged by the
///    copy, and the claiming CAS on Top still arbitrates ownership.
///
//===----------------------------------------------------------------------===//

#ifndef REN_FORKJOIN_CHASELEVDEQUE_H
#define REN_FORKJOIN_CHASELEVDEQUE_H

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace ren {
namespace forkjoin {

/// A growable single-owner / multi-thief deque of \p T pointers.
template <typename T> class ChaseLevDeque {
public:
  /// Result of a steal attempt. Aborted (lost the claiming CAS or raced a
  /// concurrent resize) is distinct from Empty so callers can choose to
  /// retry the victim instead of concluding it has no work.
  struct StealResult {
    T *Item = nullptr;
    bool Aborted = false;
  };

  explicit ChaseLevDeque(uint64_t InitialCapacity = 64)
      : Buf(new Ring(roundUpPow2(InitialCapacity))) {}

  ChaseLevDeque(const ChaseLevDeque &) = delete;
  ChaseLevDeque &operator=(const ChaseLevDeque &) = delete;

  ~ChaseLevDeque() {
    Ring *R = Buf.load(std::memory_order_relaxed);
    while (R) {
      Ring *Prev = R->Prev;
      delete R;
      R = Prev;
    }
  }

  /// Owner-only: pushes \p Item at the bottom, growing the ring if full.
  /// Never blocks; no CAS on this path.
  void push(T *Item) {
    int64_t B = Bottom.load(std::memory_order_relaxed);
    int64_t Tp = Top.load(std::memory_order_acquire);
    Ring *R = Buf.load(std::memory_order_relaxed);
    if (B - Tp > static_cast<int64_t>(R->Capacity) - 1)
      R = grow(R, Tp, B);
    R->put(B, Item);
    // Publishes the slot to a thief's acquire load of Bottom.
    Bottom.store(B + 1, std::memory_order_release);
  }

  /// Owner-only: pops the most recently pushed item (LIFO), or nullptr if
  /// the deque is empty. CAS-free except when one element remains.
  T *pop() {
    int64_t B = Bottom.load(std::memory_order_relaxed) - 1;
    Ring *R = Buf.load(std::memory_order_relaxed);
    Bottom.store(B, std::memory_order_relaxed);
    // Store-buffering pair with the fence in steal(), between its Top and
    // Bottom loads: either a thief sees our decremented Bottom, or we see
    // its Top, so owner and thief never both take the last item.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    int64_t Tp = Top.load(std::memory_order_relaxed);
    T *Item = nullptr;
    if (Tp <= B) {
      Item = R->get(B);
      if (Tp == B) {
        // Single element left: race the thieves on Top.
        if (!Top.compare_exchange_strong(Tp, Tp + 1,
                                         std::memory_order_seq_cst,
                                         std::memory_order_relaxed))
          Item = nullptr;
        Bottom.store(B + 1, std::memory_order_relaxed);
      }
    } else {
      // Already empty; undo the speculative decrement.
      Bottom.store(B + 1, std::memory_order_relaxed);
    }
    return Item;
  }

  /// Any thread: attempts to steal the oldest item (FIFO). A lost race is
  /// reported as Aborted with a null Item.
  StealResult steal() {
    StealResult Res;
    int64_t Tp = Top.load(std::memory_order_acquire);
    // Store-buffering pair with the fence in pop(), between its Bottom
    // store and its Top load; essential, not replaceable by ordering on
    // either atomic alone.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    int64_t B = Bottom.load(std::memory_order_acquire);
    if (Tp < B) {
      Ring *R = Buf.load(std::memory_order_acquire);
      T *Item = R->get(Tp);
      if (!Top.compare_exchange_strong(Tp, Tp + 1,
                                       std::memory_order_seq_cst,
                                       std::memory_order_relaxed)) {
        Res.Aborted = true;
        return Res;
      }
      Res.Item = Item;
    }
    return Res;
  }

  /// Racy size estimate (exact when quiescent; never negative).
  size_t sizeEstimate() const {
    int64_t B = Bottom.load(std::memory_order_acquire);
    int64_t Tp = Top.load(std::memory_order_acquire);
    return B > Tp ? static_cast<size_t>(B - Tp) : 0;
  }

  /// Racy emptiness estimate (used by pre-park re-checks; a false "empty"
  /// is tolerated only because the signalling protocol re-examines it).
  bool emptyEstimate() const { return sizeEstimate() == 0; }

  /// Number of ring growths performed (owner-read; for tests and traces).
  uint64_t growCount() const {
    return Grows.load(std::memory_order_relaxed);
  }

  /// Current ring capacity.
  uint64_t capacity() const {
    return Buf.load(std::memory_order_acquire)->Capacity;
  }

private:
  struct Ring {
    explicit Ring(uint64_t Cap)
        : Capacity(Cap), Mask(Cap - 1),
          Slots(new std::atomic<T *>[Cap]) {}
    ~Ring() { delete[] Slots; }

    T *get(int64_t I) const {
      return Slots[static_cast<uint64_t>(I) & Mask].load(
          std::memory_order_relaxed);
    }
    void put(int64_t I, T *Item) {
      Slots[static_cast<uint64_t>(I) & Mask].store(
          Item, std::memory_order_relaxed);
    }

    const uint64_t Capacity;
    const uint64_t Mask;
    std::atomic<T *> *Slots;
    Ring *Prev = nullptr; ///< Retired predecessor (freed in ~ChaseLevDeque).
  };

  static uint64_t roundUpPow2(uint64_t V) {
    uint64_t P = 1;
    while (P < V)
      P <<= 1;
    return P < 2 ? 2 : P;
  }

  /// Owner-only: doubles the ring, copying the live window. The old ring
  /// stays reachable (and readable by in-flight thieves) until destruction.
  Ring *grow(Ring *Old, int64_t Tp, int64_t B) {
    Ring *R = new Ring(Old->Capacity * 2);
    for (int64_t I = Tp; I < B; ++I)
      R->put(I, Old->get(I));
    R->Prev = Old;
    Buf.store(R, std::memory_order_release);
    Grows.fetch_add(1, std::memory_order_relaxed);
    return R;
  }

  // Top (thief end) and Bottom (owner end) on separate cache lines so
  // steals do not invalidate the owner's push/pop line.
  alignas(64) std::atomic<int64_t> Top{0};
  alignas(64) std::atomic<int64_t> Bottom{0};
  alignas(64) std::atomic<Ring *> Buf;
  std::atomic<uint64_t> Grows{0};
};

} // namespace forkjoin
} // namespace ren

#endif // REN_FORKJOIN_CHASELEVDEQUE_H
