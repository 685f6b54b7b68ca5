//===- forkjoin/ForkJoinPool.cpp ------------------------------------------==//
//
// The lock-free scheduler paths. The wakeup protocol's correctness
// argument lives in DESIGN.md §9; the two load-bearing rules are
//
//  (1) every enqueue that can need a wakeup — an external MPSC push, or a
//      local deque push when the deque was (nearly) empty — is followed
//      by signalWork(), whose seq_cst fence orders the enqueue before the
//      idle-stack read. Pushes onto an already-deep deque may skip the
//      signal (as in java.util.concurrent): rule (2)'s rescan covers
//      them for workers going idle, successful steals re-signal while
//      the victim stays non-empty, and the owner never parks with its
//      own deque non-empty (both park sites pop it first); and
//  (2) every worker registers on the idle stack *before* its final
//      re-check of the queues, with a seq_cst registration CAS between
//      them. So for any enqueue/park race, either the producer observes
//      the registration (and unparks the worker), or the worker's
//      re-check observes the task. Parker permits make an early unpark
//      stick: an unpark delivered between re-check and park() is consumed
//      by that park(), which then returns immediately.
//
//===----------------------------------------------------------------------===//

#include "forkjoin/ForkJoinPool.h"

#include "support/Clock.h"
#include "trace/Trace.h"

using namespace ren;
using namespace ren::forkjoin;

namespace {

/// Identifies the worker context of the calling thread.
struct WorkerContext {
  ForkJoinPool *Pool = nullptr;
  unsigned Index = 0;
};

thread_local WorkerContext CurrentWorker;

inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// One step of bounded exponential backoff: short pause bursts first,
/// yields after (so single-CPU hosts make progress while we spin).
inline void backoffStep(unsigned Round) {
  if (Round < 4) {
    for (unsigned I = 0; I < (8u << Round); ++I)
      cpuRelax();
  } else {
    std::this_thread::yield();
  }
}

/// Spin rounds before an idle worker registers and parks.
constexpr unsigned kIdleSpinRounds = 8;
/// Pure-spin iterations a joiner burns before arranging the parked wait.
constexpr unsigned kJoinSpins = 256;

constexpr uint64_t kIdleIndexMask = 0xFFFFFFFFull;

inline uint64_t bumpTag(uint64_t Head) {
  return ((Head >> 32) + 1) << 32;
}

} // namespace

/// Per-worker state: the Chase–Lev deque, the (instrumented) parking slot,
/// and the idle-stack linkage. Padded so one worker's deque indices never
/// share a cache line with a neighbour's.
struct alignas(64) ForkJoinPool::WorkerState {
  ChaseLevDeque<TaskBase> Deque;
  runtime::Parker Park;
  std::atomic<bool> OnIdleStack{false};
  std::atomic<uint64_t> IdleNext{0};
};

//===----------------------------------------------------------------------===//
// TaskBase: completion state machine
//===----------------------------------------------------------------------===//

void TaskBase::run() {
  assert(State.load(std::memory_order_relaxed) != kDone && "task ran twice");
  execute();
  // Publish the result and claim the waiter list in one exchange: release
  // so waiters' acquire of Released/State sees the body's writes, acquire
  // so we see the waiter nodes' fields.
  uintptr_t W = State.exchange(kDone, std::memory_order_acq_rel);
  while (W != kActive) {
    assert(W != kDone && "task completed twice");
    auto *N = reinterpret_cast<WaitNode *>(W);
    // Copy everything out of the node *before* releasing it: once
    // Released is set the waiter may return and pop its stack frame.
    W = N->Next;
    runtime::Parker *P = N->P;
    N->Released.store(true, std::memory_order_release);
    P->unpark();
  }
}

void TaskBase::awaitDone(ForkJoinPool *Pool) {
  if (isDone())
    return;
  const bool IsWorker = Pool && CurrentWorker.Pool == Pool;

  // Phase 1 — helping join: a *worker* of this pool runs other tasks
  // instead of blocking (otherwise recursive fork/join would starve).
  // External threads skip straight to the wait; as in java.util.concurrent
  // they block rather than execute pool tasks.
  if (IsWorker) {
    while (!isDone())
      if (!Pool->helpOneTask())
        break;
    if (isDone())
      return;
  }

  // Phase 2 — bounded spin: fork/join tasks are short; most joins whose
  // task is already executing complete within a few hundred cycles. After
  // a short pause burst, spin with yields: if the runner of the joined
  // task was preempted (oversubscribed or single-CPU hosts), pausing only
  // delays it, yielding hands it the CPU.
  for (unsigned I = 0; I < kJoinSpins; ++I) {
    if (isDone())
      return;
    if (I < 64)
      cpuRelax();
    else
      std::this_thread::yield();
  }

  // Phase 3 — event-driven wait: register a stack node on the task's
  // state word, then park until the completing thread releases us. A
  // worker keeps helping between parks and stays reachable through the
  // pool's idle stack, so scheduler wakeups (new work) and the completion
  // wakeup both land on the same parker.
  runtime::Parker &P = IsWorker
                           ? Pool->workerParker(CurrentWorker.Index)
                           : runtime::currentParker();
  WaitNode N;
  N.P = &P;
  uintptr_t S = State.load(std::memory_order_acquire);
  while (true) {
    if (S == kDone)
      return;
    N.Next = S;
    if (State.compare_exchange_weak(S, reinterpret_cast<uintptr_t>(&N),
                                    std::memory_order_release,
                                    std::memory_order_acquire))
      break;
  }
  while (!N.Released.load(std::memory_order_acquire)) {
    if (IsWorker) {
      if (Pool->helpOneTask())
        continue;
      Pool->registerIdleWorker(CurrentWorker.Index);
      if (Pool->hasQueuedWork())
        continue; // Re-check race: go help instead of parking.
    }
    P.park();
  }
  // A worker can leave the wait still registered on the idle stack (woken
  // by task completion, not by a scheduler signal). Its stale entry could
  // swallow one future signal while it computes, so pass the baton: most
  // often this pops (and thereby deregisters) the worker itself.
  if (IsWorker &&
      Pool->Workers[CurrentWorker.Index]->OnIdleStack.load(
          std::memory_order_acquire))
    Pool->signalWork();
}

//===----------------------------------------------------------------------===//
// ForkJoinPool
//===----------------------------------------------------------------------===//

ForkJoinPool::ForkJoinPool(unsigned Parallelism) {
  if (Parallelism == 0)
    Parallelism = hardwareThreads();
  NumWorkers = Parallelism;
  for (unsigned I = 0; I < Parallelism; ++I)
    Workers.push_back(std::make_unique<WorkerState>());
  for (unsigned I = 0; I < Parallelism; ++I)
    Threads.emplace_back([this, I] { workerLoop(I); });
}

ForkJoinPool::~ForkJoinPool() {
  ShuttingDown.store(true, std::memory_order_seq_cst);
  for (auto &W : Workers)
    W->Park.unpark();
  for (auto &T : Threads)
    T.join();
  // Drop tasks that never ran (submitted around shutdown). Their waiters,
  // if any, were user errors already (joining a task on a dying pool).
  for (auto &W : Workers)
    while (TaskBase *T = W->Deque.pop())
      T->release();
  while (TaskBase *T = tryPopExternal())
    T->release();
}

bool ForkJoinPool::onWorkerThread() { return CurrentWorker.Pool != nullptr; }

runtime::Parker &ForkJoinPool::workerParker(unsigned Index) {
  return Workers[Index]->Park;
}

void ForkJoinPool::schedule(TaskBase *T) {
  if (CurrentWorker.Pool == this) {
    ChaseLevDeque<TaskBase> &D = Workers[CurrentWorker.Index]->Deque;
    size_t Pre = D.sizeEstimate();
    D.push(T);
    trace::instant(trace::EventKind::FjFork, "fj.fork",
                   CurrentWorker.Index);
    // Signal only when the deque was (nearly) empty before the push, as
    // java.util.concurrent does: deeper deques were already signalled
    // for, any later idle registration rescans every queue (rule (2))
    // and sees them, and the owner itself never parks while its own
    // deque is non-empty (both park sites pop it first). Skipping the
    // signal elides its seq_cst fence from the fork fast path.
    if (Pre <= 1)
      signalWork();
    return;
  }
  // Submissions from outside the pool go to the shared MPSC queue — the
  // analogue of ForkJoinPool's submission-queue path. Size is bumped
  // before the push so a parking worker's re-check cannot under-count.
  ExternalSize.fetch_add(1, std::memory_order_release);
  External.push(T);
  trace::instant(trace::EventKind::FjExternal, "fj.external");
  signalWork();
}

void ForkJoinPool::signalWork() {
  // Order the caller's enqueue before the idle-stack read (rule (1) of
  // the wakeup protocol). Store-buffering pair with the seq_cst
  // IdleHead CAS in registerIdleWorker, which a parking worker runs
  // before re-checking the queues: either we read its registration, or
  // its re-check sees our task.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if ((IdleHead.load(std::memory_order_acquire) & kIdleIndexMask) == 0)
    return; // Nobody idle: the common fast path, one load.
  if (WorkerState *W = popIdleWorker())
    W->Park.unpark();
}

bool ForkJoinPool::registerIdleWorker(unsigned Index) {
  WorkerState &W = *Workers[Index];
  // Single registration at a time per worker: a popped-but-not-yet-woken
  // worker skips re-pushing (its pending unpark permit covers the park).
  if (W.OnIdleStack.exchange(true, std::memory_order_acq_rel))
    return false;
  uint64_t Head = IdleHead.load(std::memory_order_relaxed);
  while (true) {
    W.IdleNext.store(Head & kIdleIndexMask, std::memory_order_relaxed);
    uint64_t NewHead = bumpTag(Head) | (Index + 1);
    // seq_cst: the registration must be ordered before the caller's
    // subsequent queue re-check (rule (2) of the wakeup protocol).
    if (IdleHead.compare_exchange_weak(Head, NewHead,
                                       std::memory_order_seq_cst,
                                       std::memory_order_relaxed)) {
      IdleCount.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
}

ForkJoinPool::WorkerState *ForkJoinPool::popIdleWorker() {
  uint64_t Head = IdleHead.load(std::memory_order_acquire);
  while (true) {
    uint64_t Idx = Head & kIdleIndexMask;
    if (Idx == 0)
      return nullptr;
    WorkerState &W = *Workers[Idx - 1];
    uint64_t Next = W.IdleNext.load(std::memory_order_relaxed);
    uint64_t NewHead = bumpTag(Head) | Next;
    // The tag bump makes a concurrent pop/re-push of the same worker fail
    // this CAS (ABA defense); a stale IdleNext read is then discarded.
    if (IdleHead.compare_exchange_weak(Head, NewHead,
                                       std::memory_order_seq_cst,
                                       std::memory_order_acquire)) {
      IdleCount.fetch_sub(1, std::memory_order_relaxed);
      W.OnIdleStack.store(false, std::memory_order_release);
      return &W;
    }
  }
}

bool ForkJoinPool::hasQueuedWork() const {
  if (ExternalSize.load(std::memory_order_acquire) > 0)
    return true;
  for (const auto &W : Workers)
    if (!W->Deque.emptyEstimate())
      return true;
  return false;
}

TaskBase *ForkJoinPool::tryPopExternal() {
  if (ExternalSize.load(std::memory_order_acquire) == 0)
    return nullptr;
  // One consumer at a time, but nobody ever waits: losers fall through to
  // stealing and come back on the next findWork.
  if (ExternalPopBusy.exchange(true, std::memory_order_acquire))
    return nullptr;
  MpscNode *N = External.pop();
  if (N)
    ExternalSize.fetch_sub(1, std::memory_order_release);
  ExternalPopBusy.store(false, std::memory_order_release);
  return static_cast<TaskBase *>(N);
}

TaskBase *ForkJoinPool::findWork(unsigned SelfIndex) {
  // 1. Own deque, LIFO (best locality; the task just forked).
  if (SelfIndex < NumWorkers)
    if (TaskBase *T = Workers[SelfIndex]->Deque.pop())
      return T;
  // 2. External submissions, FIFO.
  if (TaskBase *T = tryPopExternal())
    return T;
  // 3. Steal FIFO from a victim. An aborted steal (lost CAS) means the
  // victim still had work when we looked, so sweep once more before
  // reporting starvation.
  for (unsigned Round = 0; Round < 2; ++Round) {
    bool SawAbort = false;
    for (unsigned I = 1; I <= NumWorkers; ++I) {
      unsigned Victim = (SelfIndex + I) % NumWorkers;
      if (Victim == SelfIndex)
        continue;
      auto R = Workers[Victim]->Deque.steal();
      if (R.Item) {
        trace::instant(trace::EventKind::FjSteal, "fj.steal", SelfIndex,
                       Victim);
        // Signal propagation: if the victim still has queued tasks,
        // recruit another worker — forks past the first skip their own
        // signal, so thieves re-broadcast saturation.
        if (!Workers[Victim]->Deque.emptyEstimate())
          signalWork();
        return R.Item;
      }
      SawAbort |= R.Aborted;
    }
    if (!SawAbort)
      break;
  }
  return nullptr;
}

bool ForkJoinPool::helpOneTask() {
  unsigned SelfIndex =
      CurrentWorker.Pool == this ? CurrentWorker.Index : NumWorkers;
  if (TaskBase *T = findWork(SelfIndex)) {
    runTask(T);
    return true;
  }
  return false;
}

void ForkJoinPool::workerLoop(unsigned Index) {
  CurrentWorker.Pool = this;
  CurrentWorker.Index = Index;
  WorkerState &Self = *Workers[Index];
  unsigned SpinRound = 0;
  while (true) {
    if (ShuttingDown.load(std::memory_order_acquire))
      break;
    if (TaskBase *T = findWork(Index)) {
      SpinRound = 0;
      runTask(T);
      continue;
    }
    // Idle: bounded exponential spin first — steal-heavy phases hand out
    // new work within microseconds, far cheaper than a park round trip.
    if (SpinRound < kIdleSpinRounds) {
      backoffStep(SpinRound++);
      continue;
    }
    // Event-driven park. ORDER MATTERS: register on the idle stack
    // *before* the final re-check. A producer that misses our
    // registration published its task before our re-check (seq_cst), so
    // one side always sees the other; flipping these two steps reopens
    // the classic lost-wakeup window (regression-tested by
    // ForkJoinStress.ExternalSubmitWakesParkedWorkers).
    registerIdleWorker(Index);
    if (TaskBase *T = findWork(Index)) {
      // We consumed work while (possibly still) registered: hand the
      // potentially swallowed signal to the next idler.
      signalWork();
      SpinRound = 0;
      runTask(T);
      continue;
    }
    if (ShuttingDown.load(std::memory_order_acquire))
      break;
    uint64_t TraceT0 = trace::enabled() ? trace::nowNanos() : 0;
    Self.Park.park();
    if (TraceT0)
      trace::span(trace::EventKind::FjIdle, "fj.idle", TraceT0,
                  trace::nowNanos() - TraceT0, Index);
    SpinRound = 0;
  }
  CurrentWorker.Pool = nullptr;
}

void ForkJoinPool::parallelFor(
    size_t Lo, size_t Hi, size_t Grain,
    const std::function<void(size_t, size_t)> &Body) {
  assert(Lo <= Hi && "invalid range");
  if (Grain == 0)
    Grain = 1;
  if (Hi - Lo <= Grain || parallelism() == 1) {
    if (Lo != Hi)
      Body(Lo, Hi);
    return;
  }
  size_t Mid = Lo + (Hi - Lo) / 2;
  auto Right = fork([&] { parallelFor(Mid, Hi, Grain, Body); });
  parallelFor(Lo, Mid, Grain, Body);
  join(Right);
}
