//===- stm/Stm.h - Software transactional memory ----------------*- C++ -*-===//
//
// Part of Renaissance-C++, a reproduction of the PLDI'19 Renaissance paper.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A TL2-flavoured software transactional memory modelling ScalaSTM/CCSTM
/// (Bronson et al.), the substrate of the philosophers and stm-bench7
/// benchmarks.
///
/// Design, following TL2:
///  - a global version clock, advanced by a counted CAS per writing commit;
///  - per-TVar versioned lock words (version << 1 | locked), acquired with
///    counted CAS during commit;
///  - speculative reads validate against the transaction's read version and
///    are re-validated at commit;
///  - \c retry blocks the transaction on a guarded block until some other
///    transaction commits (Monitor wait/notify — the philosophers profile).
///
/// Control flow for aborts uses C++ exceptions *internally to this module
/// only* (TxnAbort/TxnRetry are thrown by reads and caught by
/// \c atomically); this is the one sanctioned deviation from the
/// no-exceptions rule, documented in DESIGN.md, because an aborted
/// speculative execution must unwind arbitrary user code.
///
//===----------------------------------------------------------------------===//

#ifndef REN_STM_STM_H
#define REN_STM_STM_H

#include "runtime/Atomic.h"
#include "runtime/Monitor.h"

#include <cassert>
#include <atomic>
#include <cstdint>
#include <type_traits>
#include <memory>
#include <unordered_map>
#include <vector>

namespace ren {
namespace stm {

/// Thrown internally when a transaction observes an inconsistency.
struct TxnAbort {};

/// Thrown internally by stm::retry.
struct TxnRetry {};

class Transaction;

/// Untyped per-TVar metadata: the TL2 versioned lock word.
class TVarBase {
public:
  virtual ~TVarBase() = default;

protected:
  friend class Transaction;
  friend class StmRuntime;

  /// Lock word: (version << 1) | lockedBit.
  mutable runtime::Atomic<uint64_t> LockWord{0};

  static bool isLocked(uint64_t Word) { return Word & 1; }
  static uint64_t versionOf(uint64_t Word) { return Word >> 1; }
};

/// A transactional variable holding a value of type \p T.
///
/// \p T must be trivially copyable and at most word-sized: TL2 reads
/// speculatively while committers write, so the storage must be atomic
/// for the race to be defined behaviour (the version validation then
/// rejects any torn observation, exactly as in the original algorithm).
template <typename T> class TVar : public TVarBase {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                "TVar values must be word-sized and trivially copyable");

public:
  TVar() : Value(T()) {}
  explicit TVar(T Initial) : Value(Initial) {}

  /// Transactional read (speculative, validated).
  T get(Transaction &Txn) const;

  /// Transactional write (buffered until commit).
  void set(Transaction &Txn, T NewValue);

  /// Non-transactional consistent read: spins past locked states.
  T readAtomic() const {
    for (;;) {
      uint64_t V1 = LockWord.load(std::memory_order_acquire);
      if (isLocked(V1))
        continue;
      T Result = Value.load(std::memory_order_relaxed);
      uint64_t V2 = LockWord.load(std::memory_order_acquire);
      if (V1 == V2)
        return Result;
    }
  }

private:
  friend class Transaction;
  std::atomic<T> Value;
};

/// The per-attempt transaction descriptor.
class Transaction {
public:
  /// Number of TVars read so far (for tests/stats).
  size_t readSetSize() const { return ReadSet.size(); }

  /// Number of TVars written so far.
  size_t writeSetSize() const { return WriteOrder.size(); }

private:
  template <typename T> friend class TVar;
  friend class StmRuntime;
  template <typename FnT> friend auto atomically(FnT Body);
  friend void retry(Transaction &);

  explicit Transaction(uint64_t ReadVersion) : ReadVersion(ReadVersion) {}

  struct WriteEntry {
    std::shared_ptr<void> Pending;
    void (*Apply)(TVarBase *, void *);
  };

  /// Pre-read validation + read-set registration.
  void onRead(const TVarBase *Var, uint64_t PreWord) {
    if (TVarBase::isLocked(PreWord) ||
        TVarBase::versionOf(PreWord) > ReadVersion)
      throw TxnAbort();
    ReadSet.push_back(Var);
  }

  WriteEntry *findWrite(TVarBase *Var) {
    auto It = Writes.find(Var);
    return It == Writes.end() ? nullptr : &It->second;
  }

  void addWrite(TVarBase *Var, WriteEntry Entry) {
    // Look up first: emplace may consume the moved-from entry even when
    // insertion fails, which would leave a null pending value behind.
    auto It = Writes.find(Var);
    if (It != Writes.end()) {
      It->second = std::move(Entry);
      return;
    }
    Writes.emplace(Var, std::move(Entry));
    WriteOrder.push_back(Var);
  }

  uint64_t ReadVersion;
  std::vector<const TVarBase *> ReadSet;
  std::unordered_map<TVarBase *, WriteEntry> Writes;
  std::vector<TVarBase *> WriteOrder;
};

/// Blocks the transaction until another transaction commits, then retries
/// (ScalaSTM's \c retry; the philosophers' "wait for fork" idiom).
inline void retry(Transaction &) { throw TxnRetry(); }

/// Module-internal runtime shared by all transactions.
class StmRuntime {
public:
  static StmRuntime &get();

  uint64_t clockValue() { return Clock.load(std::memory_order_acquire); }

  /// Runs the TL2 commit protocol. \returns false when validation fails.
  bool commit(Transaction &Txn);

  /// Blocks until the commit count moves past \p Seen (for retry
  /// support). \p Seen must be read before the retrying transaction's
  /// first read, so a commit landing during those reads wakes it.
  void awaitCommit(uint64_t Seen);

  /// Statistics counters (monotonic, for tests and reporting).
  uint64_t commits() const { return CommitCount.load(); }
  uint64_t aborts() const { return AbortCount.load(); }
  void noteAbort() { AbortCount.getAndAdd(1); }

private:
  StmRuntime() = default;

  runtime::Atomic<uint64_t> Clock{0};
  runtime::Monitor CommitMonitor;
  runtime::Atomic<uint64_t> CommitCount{0};
  runtime::Atomic<uint64_t> AbortCount{0};
};

template <typename T> T TVar<T>::get(Transaction &Txn) const {
  // Read-your-writes: a pending write shadows the committed value.
  if (Transaction::WriteEntry *W =
          Txn.findWrite(const_cast<TVar<T> *>(this)))
    return *static_cast<T *>(W->Pending.get());
  uint64_t Pre = LockWord.load(std::memory_order_acquire);
  T Result = Value.load(std::memory_order_relaxed);
  uint64_t Post = LockWord.load(std::memory_order_acquire);
  if (Pre != Post)
    throw TxnAbort();
  Txn.onRead(this, Pre);
  return Result;
}

template <typename T> void TVar<T>::set(Transaction &Txn, T NewValue) {
  Transaction::WriteEntry Entry;
  Entry.Pending = std::make_shared<T>(std::move(NewValue));
  Entry.Apply = [](TVarBase *Var, void *Pending) {
    static_cast<TVar<T> *>(Var)->Value.store(*static_cast<T *>(Pending),
                                             std::memory_order_relaxed);
  };
  Txn.addWrite(this, std::move(Entry));
}

/// Runs \p Body transactionally until it commits. \p Body receives the
/// Transaction and may call retry() to block for a consistent state change.
template <typename FnT> auto atomically(FnT Body) {
  StmRuntime &Rt = StmRuntime::get();
  for (;;) {
    const uint64_t Seen = Rt.commits();
    Transaction Txn(Rt.clockValue());
    try {
      if constexpr (std::is_void_v<decltype(Body(Txn))>) {
        Body(Txn);
        if (Rt.commit(Txn))
          return;
      } else {
        auto Result = Body(Txn);
        if (Rt.commit(Txn))
          return Result;
      }
      Rt.noteAbort();
    } catch (const TxnAbort &) {
      Rt.noteAbort();
    } catch (const TxnRetry &) {
      Rt.awaitCommit(Seen);
    }
  }
}

} // namespace stm
} // namespace ren

#endif // REN_STM_STM_H
