//===- actors/ActorSystem.cpp ---------------------------------------------==//

#include "actors/ActorSystem.h"

using namespace ren;
using namespace ren::actors;

ActorSystem::ActorSystem(unsigned Parallelism)
    : PoolPtr(std::make_unique<forkjoin::ForkJoinPool>(Parallelism)) {}

ActorSystem::~ActorSystem() {
  // Stop the workers first; only then is it safe to destroy actors. A
  // running activation may still reschedule itself through PoolPtr (the
  // dying pool drops that task), so the pointer must stay valid until the
  // workers are joined: unique_ptr::reset would null it first.
  delete PoolPtr.get();
  PoolPtr.release();
  // Break ActorRef cycles (actors holding refs to each other/themselves)
  // so the cells can actually be reclaimed.
  runtime::Synchronized Sync(CellsLock);
  for (auto &C : Cells)
    C->dropActor();
  Cells.clear();
}

void ActorSystem::notePending() { PendingMessages.getAndAdd(1); }

void ActorSystem::noteProcessed() {
  if (PendingMessages.getAndAdd(-1) == 1) {
    runtime::Synchronized Sync(QuiescenceMonitor);
    QuiescenceMonitor.notifyAll();
  }
}

void ActorSystem::awaitQuiescence() {
  runtime::Synchronized Sync(QuiescenceMonitor);
  // Exact wait: the count is decremented outside the monitor, but the
  // decrement to 0 is followed by notifyAll under this monitor, which we
  // hold from the check until wait() releases it, so the notify cannot
  // fall between the check and the wait.
  while (PendingMessages.load(std::memory_order_acquire) != 0)
    QuiescenceMonitor.wait();
}
