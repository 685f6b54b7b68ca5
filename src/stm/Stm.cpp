//===- stm/Stm.cpp - TL2 commit protocol ----------------------------------==//

#include "stm/Stm.h"

#include <algorithm>

using namespace ren;
using namespace ren::stm;

StmRuntime &StmRuntime::get() {
  static StmRuntime *Rt = new StmRuntime();
  return *Rt;
}

bool StmRuntime::commit(Transaction &Txn) {
  // Read-only transactions are already consistent: every read validated
  // against ReadVersion and nothing moved underneath them.
  if (Txn.WriteOrder.empty()) {
    CommitCount.getAndAdd(1);
    return true;
  }

  // Phase 1: lock the write set in address order (global order, so two
  // committers cannot deadlock).
  std::vector<TVarBase *> Locked;
  Locked.reserve(Txn.WriteOrder.size());
  std::vector<TVarBase *> Ordered = Txn.WriteOrder;
  std::sort(Ordered.begin(), Ordered.end());

  auto unlockAll = [&Locked](uint64_t RestoreShift) {
    for (TVarBase *Var : Locked) {
      uint64_t Word = Var->LockWord.load(std::memory_order_relaxed);
      Var->LockWord.store((TVarBase::versionOf(Word) + RestoreShift) << 1,
                          std::memory_order_release);
    }
  };

  for (TVarBase *Var : Ordered) {
    uint64_t Word = Var->LockWord.load(std::memory_order_acquire);
    if (TVarBase::isLocked(Word) ||
        TVarBase::versionOf(Word) > Txn.ReadVersion ||
        !Var->LockWord.compareAndSet(Word, Word | 1)) {
      unlockAll(/*RestoreShift=*/0);
      return false;
    }
    Locked.push_back(Var);
  }

  // Phase 2: advance the global clock.
  uint64_t WriteVersion = Clock.incrementAndGet();

  // Phase 3: validate the read set (unless it is covered by our own locks).
  for (const TVarBase *Var : Txn.ReadSet) {
    uint64_t Word = Var->LockWord.load(std::memory_order_acquire);
    bool LockedByUs =
        std::binary_search(Ordered.begin(), Ordered.end(),
                           const_cast<TVarBase *>(Var));
    if (TVarBase::versionOf(Word) > Txn.ReadVersion ||
        (TVarBase::isLocked(Word) && !LockedByUs)) {
      unlockAll(/*RestoreShift=*/0);
      return false;
    }
  }

  // Phase 4: publish the writes and release the locks at WriteVersion.
  for (TVarBase *Var : Txn.WriteOrder) {
    Transaction::WriteEntry &Entry = Txn.Writes[Var];
    Entry.Apply(Var, Entry.Pending.get());
  }
  for (TVarBase *Var : Locked)
    Var->LockWord.store(WriteVersion << 1, std::memory_order_release);

  CommitCount.getAndAdd(1);
  {
    runtime::Synchronized Sync(CommitMonitor);
    CommitMonitor.notifyAll();
  }
  return true;
}

void StmRuntime::awaitCommit(uint64_t Seen) {
  runtime::Synchronized Sync(CommitMonitor);
  // Exact wait: a committer bumps the count and then calls notifyAll
  // under this monitor, which we hold from the check until wait()
  // releases it, so the notify cannot fall between the check and the
  // wait.
  while (CommitCount.load(std::memory_order_acquire) == Seen)
    CommitMonitor.wait();
}
