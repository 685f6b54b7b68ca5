//===- netsim/Reactor.cpp -------------------------------------------------==//

#include "netsim/Reactor.h"

#include "metrics/Metrics.h"
#include "runtime/Alloc.h"
#include "support/Clock.h"

#include <cassert>

using namespace ren;
using namespace ren::netsim;

namespace {

/// A pending sim-mode request deadline: heap-owned because the request may
/// outlive its frame while queued. The timer holds a promise copy and
/// fires tryFailure unconditionally — lazy cancellation: a completed
/// request makes the failure a no-op, so nobody ever needs to cancel.
/// Freed when fired or at reactor teardown.
struct DeadlineTimer {
  TimerNode Node;
  futures::Promise<Bytes> Reply;
};

} // namespace

//===----------------------------------------------------------------------===//
// Poller
//===----------------------------------------------------------------------===//

Poller::~Poller() = default;

bool ThreadPoller::drain(std::vector<ReadyNode *> &Out) {
  bool Any = false;
  while (auto *N = static_cast<ReadyNode *>(Events.pop())) {
    Out.push_back(N);
    Any = true;
  }
  return Any;
}

void ThreadPoller::notify(ReadyNode *N) {
  Events.push(N);
  // Dekker handshake against poll(): the push above vs our Sleeping read,
  // the consumer's Sleeping publish vs its re-drain. Both sides fence
  // seq_cst, so "consumer misses the node AND producer misses Sleeping"
  // (the lost-wakeup store-buffering outcome) cannot happen.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (Sleeping.load(std::memory_order_relaxed) &&
      Sleeping.exchange(false, std::memory_order_acq_rel))
    if (runtime::Parker *P = Waiter.load(std::memory_order_acquire))
      P->unpark();
}

void ThreadPoller::shutdown() {
  ShuttingDown.store(true, std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (Sleeping.exchange(false, std::memory_order_acq_rel))
    if (runtime::Parker *P = Waiter.load(std::memory_order_acquire))
      P->unpark();
}

bool ThreadPoller::poll(std::vector<ReadyNode *> &Out, uint64_t WaitNanos) {
  if (!Waiter.load(std::memory_order_relaxed))
    Waiter.store(&runtime::currentParker(), std::memory_order_release);
  if (drain(Out))
    return true;
  if (ShuttingDown.load(std::memory_order_acquire)) {
    // Deliver anything that raced in with the shutdown flag; exhausted
    // only when a post-flag drain finds nothing.
    return drain(Out);
  }
  if (WaitNanos == 0)
    return true; // non-blocking probe: empty is a valid answer
  const uint64_t Deadline =
      WaitNanos == UINT64_MAX ? UINT64_MAX : wallNanos() + WaitNanos;
  for (;;) {
    // Brief spin: readiness edges usually arrive in bursts.
    for (int I = 0; I < 64; ++I) {
      if (drain(Out))
        return true;
      std::this_thread::yield();
    }
    Sleeping.store(true, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (drain(Out)) {
      Sleeping.store(false, std::memory_order_relaxed);
      return true;
    }
    if (ShuttingDown.load(std::memory_order_acquire)) {
      Sleeping.store(false, std::memory_order_relaxed);
      return drain(Out);
    }
    if (Deadline == UINT64_MAX) {
      runtime::currentParker().park(); // spurious returns are fine: we loop
    } else {
      uint64_t Now = wallNanos();
      if (Now >= Deadline) {
        Sleeping.store(false, std::memory_order_relaxed);
        drain(Out);
        return true; // timed out: the caller advances its timers
      }
      // parkFor is millisecond-grained; round up so we never spin on a
      // sub-millisecond remainder, and re-check the deadline on wake.
      uint64_t Millis = (Deadline - Now + 999999) / 1000000;
      runtime::currentParker().parkFor(Millis ? Millis : 1);
    }
    Sleeping.store(false, std::memory_order_relaxed);
    if (drain(Out))
      return true;
    if (ShuttingDown.load(std::memory_order_acquire))
      return drain(Out);
    if (Deadline != UINT64_MAX && wallNanos() >= Deadline)
      return true;
  }
}

//===----------------------------------------------------------------------===//
// Connection: producer side
//===----------------------------------------------------------------------===//

Connection::Connection(Reactor &Owner, unsigned ShardIndex, uint32_t ConnId)
    : Owner(Owner), ShardIndex(ShardIndex), ConnId(ConnId) {
  Node.Conn = this;
  IdleTimer.What = TimerNode::Kind::IdleCull;
  IdleTimer.Payload = this;
}

Connection::~Connection() = default;

void Connection::submit(FrameNode *Frame) {
  Inbound.push(Frame);
  // The push's exchange is the lock-free-queue CAS the JVM Finagle stack
  // performs per write; count it as the paper's atomic metric does.
  metrics::count(metrics::Metric::Atomic);
  // Edge-trigger: only the false->true arming edge posts an event. The
  // fence pairs with the shard's disarm/re-check (see drainBudgeted).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!Armed.exchange(true, std::memory_order_acq_rel))
    Owner.Shards[ShardIndex]->Events->notify(&Node);
}

futures::Future<Bytes> Connection::call(Bytes Request) {
  return call(std::move(Request), 0);
}

futures::Future<Bytes> Connection::call(Bytes Request,
                                        uint64_t DeadlineAfterNanos) {
  if (!ClientOpen.load(std::memory_order_acquire))
    return futures::Future<Bytes>::failed("connection closed");
  if (!ServerOpen.load(std::memory_order_acquire))
    return futures::Future<Bytes>::failed("connection idle timeout");
  auto *Frame = runtime::heap::create<FrameNode>();
  uint64_t Id = NextRequestId.fetch_add(1, std::memory_order_relaxed);
  Frame->Wire.reserve(Request.size() + 8);
  for (int Shift = 0; Shift < 64; Shift += 8)
    Frame->Wire.push_back(static_cast<uint8_t>(Id >> Shift));
  Frame->Wire.insert(Frame->Wire.end(), Request.begin(), Request.end());
  runtime::noteObjectAlloc(); // the wire envelope
  futures::Future<Bytes> Fut = Frame->Reply.future();
  if (DeadlineAfterNanos != 0) {
    if (Owner.deterministic()) {
      // Single-threaded mode: arm the deadline in the shard's wheel at
      // call time, as Finagle's client stack does. Expiry is driven by
      // the virtual clock, so firing order is seed-stable.
      Frame->DeadlineNanos = Owner.SimNanos + DeadlineAfterNanos;
      auto *D = runtime::heap::create<DeadlineTimer>();
      D->Node.What = TimerNode::Kind::RequestDeadline;
      D->Node.Payload = D;
      D->Reply = Frame->Reply;
      Owner.Shards[ShardIndex]->Wheel->schedule(&D->Node,
                                                Frame->DeadlineNanos);
    } else {
      // Real mode: the producer cannot touch the shard-private wheel;
      // the shard enforces the stamp at dequeue and again after the
      // handler ran.
      Frame->DeadlineNanos = wallNanos() + DeadlineAfterNanos;
    }
  }
  submit(Frame);
  return Fut;
}

void Connection::close() {
  if (!ClientOpen.exchange(false, std::memory_order_acq_rel))
    return; // idempotent
  auto *Marker = runtime::heap::create<FrameNode>();
  Marker->FrameKind = FrameNode::Kind::CloseMarker;
  futures::Future<Bytes> Ack = Marker->Reply.future();
  submit(Marker);
  if (Owner.deterministic()) {
    // Single-threaded mode: pump the simulation inline until the shard
    // acks the drain. FIFO guarantees every earlier frame was processed.
    while (!Ack.isCompleted()) {
      size_t Processed = Owner.pump(1);
      assert(Processed > 0 && "close marker queued but pump found nothing");
      (void)Processed;
    }
  } else {
    Ack.await();
  }
}

//===----------------------------------------------------------------------===//
// Reactor
//===----------------------------------------------------------------------===//

Reactor::Reactor(Handler HandleFn, ReactorOptions Options)
    : Handle(std::move(HandleFn)), Opts(Options), SimRng(Options.Seed) {
  assert(Opts.Shards > 0 && "reactor needs at least one shard");
  const uint64_t Anchor = Opts.Deterministic ? 0 : wallNanos();
  Shards.reserve(Opts.Shards);
  for (unsigned I = 0; I < Opts.Shards; ++I) {
    auto S = std::make_unique<Shard>();
    if (Opts.Deterministic)
      S->Events = std::make_unique<SimPoller>();
    else
      S->Events = std::make_unique<ThreadPoller>();
    S->Wheel = std::make_unique<TimerWheel>(Anchor);
    S->NowNanos = Anchor;
    Shards.push_back(std::move(S));
  }
  if (!Opts.Deterministic)
    for (auto &S : Shards)
      S->Loop = std::thread([this, Raw = S.get()] { shardLoop(*Raw); });
}

Reactor::~Reactor() {
  for (auto &S : Shards)
    S->Events->shutdown();
  for (auto &S : Shards)
    if (S->Loop.joinable())
      S->Loop.join();
  // Drain the wheels: deadline timers own heap nodes and promise copies.
  for (auto &S : Shards) {
    std::vector<TimerNode *> Left;
    S->Wheel->drainAll(Left);
    for (TimerNode *T : Left)
      if (T->What == TimerNode::Kind::RequestDeadline) {
        auto *D = static_cast<DeadlineTimer *>(T->Payload);
        D->Reply.tryFailure("server destroyed");
        runtime::heap::destroy(D);
      }
  }
  // Defensive sweep: a connection left open holds frames nobody will
  // process now (the contract is to close connections first; this keeps
  // the failure mode "futures fail" rather than "futures hang").
  auto SweepFrames = [](Connection &C) {
    while (auto *F = static_cast<FrameNode *>(C.Inbound.pop())) {
      F->Reply.tryFailure("server destroyed");
      runtime::heap::destroy(F);
    }
  };
  std::lock_guard<std::mutex> Guard(ConnLock);
  for (auto &Entry : Registry)
    SweepFrames(*Entry.second);
  for (auto &S : Shards)
    for (auto &C : S->Graveyard)
      SweepFrames(*C);
}

std::shared_ptr<Connection> Reactor::open() {
  unsigned ShardIndex =
      NextShard.fetch_add(1, std::memory_order_relaxed) % Shards.size();
  uint32_t Id = NextConnId.fetch_add(1, std::memory_order_relaxed);
  // Placement-construct on the substrate; the deleter mirrors HeapDelete
  // but stays here because the ctor is only visible to this friend.
  void *Mem = runtime::heap::allocate(sizeof(Connection));
  std::shared_ptr<Connection> C(::new (Mem) Connection(*this, ShardIndex, Id),
                                [](Connection *P) {
                                  P->~Connection();
                                  runtime::heap::deallocate(P);
                                });
  runtime::noteObjectAlloc();
  {
    std::lock_guard<std::mutex> Guard(ConnLock);
    Registry.emplace(Id, C);
  }
  if (Opts.IdleTimeoutNanos > 0) {
    // Announce the connection to its shard so the idle timer gets armed
    // (the wheel is shard-private; the announcement rides the normal
    // readiness path).
    auto *Reg = runtime::heap::create<FrameNode>();
    Reg->FrameKind = FrameNode::Kind::Register;
    C->submit(Reg);
  }
  return C;
}

uint64_t Reactor::requestsHandled() const {
  uint64_t Total = 0;
  for (const auto &S : Shards)
    Total += S->Handled.load(std::memory_order_relaxed);
  return Total;
}

size_t Reactor::connectionsLive() const {
  std::lock_guard<std::mutex> Guard(ConnLock);
  return Registry.size();
}

//===----------------------------------------------------------------------===//
// Shard event loop (real mode)
//===----------------------------------------------------------------------===//

void Reactor::shardLoop(Shard &S) {
  std::vector<ReadyNode *> Batch;
  std::deque<Connection *> Run;
  for (;;) {
    // Block only when the run queue is dry; otherwise probe. The wait is
    // bounded by the wheel so due timers fire even with no traffic.
    uint64_t Wait = 0;
    if (Run.empty())
      Wait = S.Wheel->nanosToNext(wallNanos());
    bool Alive = S.Events->poll(Batch, Wait);
    for (ReadyNode *N : Batch)
      Run.push_back(N->Conn);
    Batch.clear();

    S.NowNanos = wallNanos();
    advanceTimers(S);

    // One bounded pass over the batch: a connection that exhausts its
    // drain budget is requeued *behind* this pass, so every ready
    // connection gets shard time before any chatty one gets more.
    size_t Pass = Run.size();
    for (size_t I = 0; I < Pass; ++I) {
      Connection *C = Run.front();
      Run.pop_front();
      if (drainBudgeted(S, *C))
        Run.push_back(C);
    }

    sweepGraveyard(S);
    if (!Alive && Run.empty())
      break;
  }
}

bool Reactor::drainBudgeted(Shard &S, Connection &C) {
  unsigned Budget = kDrainBudget;
  for (;;) {
    while (Budget > 0) {
      auto *Frame = static_cast<FrameNode *>(C.Inbound.pop());
      if (!Frame)
        break;
      --Budget;
      processFrame(S, C, Frame);
    }
    if (Budget == 0 && C.Inbound.consumerMaybeNonEmpty())
      return true; // budget spent, frames left: requeue, stay armed
    // Disarm, then re-check behind a seq_cst fence (pairs with the
    // producer's push+arm fence): either we see the racing frame here,
    // or the producer saw our disarm and posted a fresh event. Paid once
    // per drained connection, not once per budget slice.
    C.Armed.store(false, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!C.Inbound.consumerMaybeNonEmpty())
      return false;
    // Frames raced in: try to reclaim the processing role. Losing the
    // exchange means a producer re-armed and re-notified; the poller
    // will redeliver, so we must not keep consuming.
    if (C.Armed.exchange(true, std::memory_order_acq_rel))
      return false;
    if (Budget == 0)
      return true; // reclaimed the role but out of budget: requeue
  }
}

//===----------------------------------------------------------------------===//
// Frame processing
//===----------------------------------------------------------------------===//

void Reactor::processFrame(Shard &S, Connection &C, FrameNode *Frame) {
  runtime::Ref<FrameNode> Owned(Frame); // frees into the substrate

  if (Frame->FrameKind == FrameNode::Kind::Register) {
    // Connection announcement: arm the idle timer. No reply, no request
    // accounting, no virtual-time charge.
    C.LastActivityNanos = S.NowNanos;
    if (Opts.IdleTimeoutNanos > 0 && !C.Retired && !C.IdleTimer.scheduled())
      S.Wheel->schedule(&C.IdleTimer, S.NowNanos + Opts.IdleTimeoutNanos);
    return;
  }

  if (Frame->FrameKind == FrameNode::Kind::CloseMarker) {
    C.PeerClosed = true;
    C.State = Connection::RxState::Idle;
    // Everything queued before the marker was already processed (FIFO),
    // so the demux table is empty unless a response path was abandoned.
    for (auto &Entry : C.Pending)
      Entry.second.tryFailure("connection closed");
    C.Pending.clear();
    Frame->Reply.trySuccess({}); // drain-complete ack
    retire(S, C);
    return;
  }

  if (C.PeerClosed) {
    // A call raced close(): the frame landed behind the marker, as on a
    // real socket that was already shut down.
    Frame->Reply.tryFailure("connection closed");
    return;
  }

  if (C.Culled) {
    // The server culled this connection for idleness before the frame
    // was drained; the write fails, as on a remotely-closed socket.
    Frame->Reply.tryFailure("connection idle timeout");
    return;
  }

  if (Opts.IdleTimeoutNanos > 0)
    C.LastActivityNanos = S.NowNanos;

  if (Frame->DeadlineNanos != 0) {
    // Expired while queued: fail without burning handler time.
    uint64_t Now = Opts.Deterministic ? SimNanos : wallNanos();
    if (Now >= Frame->DeadlineNanos) {
      Frame->Reply.tryFailure("request deadline exceeded");
      return;
    }
  }

  // --- the per-connection state machine ---
  // ReadHeader: peel the 8-byte request id off the envelope.
  assert(Frame->Wire.size() >= 8 && "malformed wire frame");
  uint64_t Id = 0;
  for (int Shift = 0; Shift < 64; Shift += 8)
    Id |= static_cast<uint64_t>(Frame->Wire[Shift / 8]) << Shift;
  Bytes Payload(Frame->Wire.begin() + 8, Frame->Wire.end());

  // Register the demux entry, exactly as the client-side dispatcher
  // would on write: id -> promise.
  C.Pending.emplace(Id, Frame->Reply);

  // Dispatch the handler inline on the shard thread.
  C.State = Connection::RxState::Dispatching;
  Bytes Response = Handle(Payload);

  // Encode the response envelope (id + body) — the bytes a server would
  // put back on the wire.
  C.State = Connection::RxState::Responding;
  Bytes ReplyWire;
  ReplyWire.reserve(Response.size() + 8);
  for (int Shift = 0; Shift < 64; Shift += 8)
    ReplyWire.push_back(static_cast<uint8_t>(Id >> Shift));
  ReplyWire.insert(ReplyWire.end(), Response.begin(), Response.end());
  runtime::noteObjectAlloc(); // the reply envelope

  // Demux: parse the envelope id back out and complete the matching
  // future. (The id *must* round-trip; the assert pins the codec.)
  uint64_t ReplyId = 0;
  for (int Shift = 0; Shift < 64; Shift += 8)
    ReplyId |= static_cast<uint64_t>(ReplyWire[Shift / 8]) << Shift;
  assert(ReplyId == Id && "response demux id mismatch");
  auto It = C.Pending.find(ReplyId);
  assert(It != C.Pending.end() && "response for unregistered request");
  futures::Promise<Bytes> P = It->second;
  C.Pending.erase(It);
  Bytes Body(ReplyWire.begin() + 8, ReplyWire.end());
  // Count the frame before completing its future, so a caller holding
  // every response reads an exact requestsHandled().
  C.State = Connection::RxState::Idle;
  ++C.FramesHandled;
  S.Handled.fetch_add(1, std::memory_order_relaxed);
  // A response completed past its deadline is a failure, not a late
  // success (real mode; in sim the pre-check and wheel govern expiry).
  if (Frame->DeadlineNanos != 0 && !Opts.Deterministic &&
      wallNanos() >= Frame->DeadlineNanos)
    P.tryFailure("request deadline exceeded");
  else
    P.trySuccess(std::move(Body));

  if (Opts.Deterministic)
    SimNanos += kSimFrameNanos + kSimByteNanos * Frame->Wire.size();
}

//===----------------------------------------------------------------------===//
// Timers: idle culling and request deadlines
//===----------------------------------------------------------------------===//

void Reactor::advanceTimers(Shard &S) {
  S.FiredScratch.clear();
  S.Wheel->advanceTo(S.NowNanos, S.FiredScratch);
  for (TimerNode *T : S.FiredScratch)
    fireTimer(S, T);
}

void Reactor::fireTimer(Shard &S, TimerNode *T) {
  switch (T->What) {
  case TimerNode::Kind::IdleCull: {
    auto *C = static_cast<Connection *>(T->Payload);
    if (C->Retired)
      return; // embedded node; the connection is already on its way out
    uint64_t Due = C->LastActivityNanos + Opts.IdleTimeoutNanos;
    if (S.NowNanos < Due) {
      // Activity since the arm: push the timer out instead of tracking
      // every frame (the lazy-reschedule idiom all timeout wheels use).
      S.Wheel->schedule(T, Due);
      return;
    }
    cull(S, *C);
    return;
  }
  case TimerNode::Kind::RequestDeadline: {
    auto *D = static_cast<DeadlineTimer *>(T->Payload);
    D->Reply.tryFailure("request deadline exceeded");
    runtime::heap::destroy(D);
    return;
  }
  case TimerNode::Kind::None:
    return;
  }
}

void Reactor::cull(Shard &S, Connection &C) {
  C.Culled = true;
  // Fail-fast for future calls; frames already queued fail at drain.
  C.ServerOpen.store(false, std::memory_order_release);
  for (auto &Entry : C.Pending)
    Entry.second.tryFailure("connection idle timeout");
  C.Pending.clear();
  retire(S, C);
}

void Reactor::retire(Shard &S, Connection &C) {
  if (C.Retired)
    return;
  C.Retired = true;
  S.Wheel->cancel(&C.IdleTimer);
  std::lock_guard<std::mutex> Guard(ConnLock);
  auto It = Registry.find(C.id());
  if (It != Registry.end()) {
    S.Graveyard.push_back(std::move(It->second));
    Registry.erase(It);
  }
}

void Reactor::sweepGraveyard(Shard &S) {
  // Bounded slice per pass, resumed at the shard's cursor: during a mass
  // teardown the graveyard holds every closed-but-still-referenced
  // connection, and a full scan per round made N closes cost O(N^2) —
  // the 10^6-connection tier spent minutes in this loop. Entries the
  // slice skips are revisited on later rounds; anything still pinned at
  // reactor destruction is freed by the Shards vector itself.
  constexpr size_t kSweepSlice = 64;
  size_t Budget = std::min(S.Graveyard.size(), kSweepSlice);
  size_t I = S.SweepCursor < S.Graveyard.size() ? S.SweepCursor : 0;
  while (Budget-- > 0 && !S.Graveyard.empty()) {
    if (I >= S.Graveyard.size())
      I = 0;
    Connection &C = *S.Graveyard[I];
    // Free only when unreachable: ours is the last reference (no client
    // handle, so no new producer can appear) and the connection is
    // disarmed (not in the poller, not requeued, and — because producers
    // arm before notifying — no notify is in flight either).
    if (S.Graveyard[I].use_count() == 1 &&
        !C.Armed.load(std::memory_order_acquire)) {
      while (auto *F = static_cast<FrameNode *>(C.Inbound.pop())) {
        F->Reply.tryFailure("connection closed");
        runtime::heap::destroy(F);
      }
      if (I + 1 != S.Graveyard.size())
        S.Graveyard[I] = std::move(S.Graveyard.back());
      S.Graveyard.pop_back();
    } else {
      ++I;
    }
  }
  S.SweepCursor = I;
}

//===----------------------------------------------------------------------===//
// Deterministic-simulation pump
//===----------------------------------------------------------------------===//

void Reactor::gatherSimReady() {
  std::vector<ReadyNode *> Batch;
  for (auto &S : Shards)
    S->Events->poll(Batch, 0);
  for (ReadyNode *N : Batch)
    SimReady.push_back(N->Conn);
}

bool Reactor::idle() const {
  assert(Opts.Deterministic && "idle() is a sim-mode query");
  if (!SimReady.empty())
    return false;
  for (const auto &S : Shards)
    if (!static_cast<SimPoller *>(S->Events.get())->idle())
      return false;
  return true;
}

size_t Reactor::pump(size_t MaxFrames) {
  assert(Opts.Deterministic &&
         "pump() drives deterministic reactors; real shards self-drive");
  auto FireDueTimers = [this] {
    for (auto &S : Shards) {
      S->NowNanos = SimNanos;
      advanceTimers(*S);
    }
  };
  size_t Processed = 0;
  while (Processed < MaxFrames) {
    // Virtual time advanced by the previous frame: fire what came due
    // before picking the next event, as a real shard round would.
    FireDueTimers();
    gatherSimReady();
    if (SimReady.empty())
      break;
    // Seeded event ordering: pick the next ready connection uniformly.
    // One frame per step keeps the exploration fine-grained; FIFO within
    // a connection is preserved by the queue itself.
    size_t Pick = SimRng.nextBounded(SimReady.size());
    Connection *C = SimReady[Pick];
    auto *Frame = static_cast<FrameNode *>(C->Inbound.pop());
    if (Frame) {
      Shard &S = *Shards[C->ShardIndex];
      S.NowNanos = SimNanos;
      processFrame(S, *C, Frame);
      ++Processed;
    }
    // Single-threaded: the disarm/re-check protocol degenerates to a
    // plain emptiness test.
    if (!C->Inbound.consumerMaybeNonEmpty()) {
      C->Armed.store(false, std::memory_order_relaxed);
      SimReady[Pick] = SimReady.back();
      SimReady.pop_back();
    }
  }
  FireDueTimers();
  for (auto &S : Shards)
    sweepGraveyard(*S);
  return Processed;
}

void Reactor::advanceVirtualTime(uint64_t Nanos) {
  assert(Opts.Deterministic &&
         "advanceVirtualTime drives the sim clock; real time advances itself");
  SimNanos += Nanos;
  for (auto &S : Shards) {
    S->NowNanos = SimNanos;
    advanceTimers(*S);
  }
  for (auto &S : Shards)
    sweepGraveyard(*S);
}
