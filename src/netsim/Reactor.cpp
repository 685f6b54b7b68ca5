//===- netsim/Reactor.cpp -------------------------------------------------==//

#include "netsim/Reactor.h"

#include "metrics/Metrics.h"
#include "runtime/Alloc.h"
#include "support/Clock.h"

#include <cassert>

using namespace ren;
using namespace ren::netsim;

//===----------------------------------------------------------------------===//
// Poller
//===----------------------------------------------------------------------===//

bool Poller::drain(std::vector<ReadyNode *> &Out) {
  bool Any = false;
  while (auto *N = static_cast<ReadyNode *>(Events.pop())) {
    Out.push_back(N);
    Any = true;
  }
  return Any;
}

void Poller::notify(ReadyNode *N) {
  Events.push(N);
  // Dekker handshake against poll(): the push above vs our Sleeping read,
  // the consumer's Sleeping publish vs its re-drain. Both sides fence
  // seq_cst, so "consumer misses the node AND producer misses Sleeping"
  // (the lost-wakeup store-buffering outcome) cannot happen.
  // Pairs with the fence after poll()'s Sleeping.store(true).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (Sleeping.load(std::memory_order_relaxed) &&
      Sleeping.exchange(false, std::memory_order_acq_rel))
    if (runtime::Parker *P = Waiter.load(std::memory_order_acquire))
      P->unpark();
}

void Poller::shutdown() {
  ShuttingDown.store(true, std::memory_order_seq_cst);
  // Pairs with the fence after poll()'s Sleeping.store(true): poll sees
  // ShuttingDown, or we see Sleeping and unpark it.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (Sleeping.exchange(false, std::memory_order_acq_rel))
    if (runtime::Parker *P = Waiter.load(std::memory_order_acquire))
      P->unpark();
}

bool Poller::poll(std::vector<ReadyNode *> &Out, bool Block) {
  if (!Waiter.load(std::memory_order_relaxed))
    Waiter.store(&runtime::currentParker(), std::memory_order_release);
  if (drain(Out))
    return true;
  if (ShuttingDown.load(std::memory_order_acquire)) {
    // Deliver anything that raced in with the shutdown flag; exhausted
    // only when a post-flag drain finds nothing.
    return drain(Out);
  }
  if (!Block)
    return true; // non-blocking probe: empty is a valid answer
  for (;;) {
    // Brief spin: readiness edges usually arrive in bursts.
    for (int I = 0; I < 64; ++I) {
      if (drain(Out))
        return true;
      std::this_thread::yield();
    }
    Sleeping.store(true, std::memory_order_release);
    // Pairs with the fences in notify() (after its push) and shutdown()
    // (after its ShuttingDown store).
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (drain(Out)) {
      Sleeping.store(false, std::memory_order_relaxed);
      return true;
    }
    if (ShuttingDown.load(std::memory_order_acquire)) {
      Sleeping.store(false, std::memory_order_relaxed);
      return drain(Out);
    }
    runtime::currentParker().park(); // spurious returns are fine: we loop
    Sleeping.store(false, std::memory_order_relaxed);
    if (drain(Out))
      return true;
    if (ShuttingDown.load(std::memory_order_acquire))
      return drain(Out);
  }
}

//===----------------------------------------------------------------------===//
// Connection: producer side
//===----------------------------------------------------------------------===//

Connection::Connection(Reactor &Owner, unsigned ShardIndex, uint32_t ConnId)
    : Owner(Owner), ShardIndex(ShardIndex), ConnId(ConnId) {
  Node.Conn = this;
}

Connection::~Connection() = default;

void Connection::submit(FrameNode *Frame) {
  Inbound.push(Frame);
  // The push's exchange is the lock-free-queue CAS the JVM Finagle stack
  // performs per write; count it as the paper's atomic metric does.
  metrics::count(metrics::Metric::Atomic);
  // Edge-trigger: only the false->true arming edge posts an event.
  // Pairs with the fence after drainBudgeted's Armed.store(false).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!Armed.exchange(true, std::memory_order_acq_rel))
    Owner.Shards[ShardIndex]->Events.notify(&Node);
}

futures::Future<Bytes> Connection::call(Bytes Request) {
  return call(std::move(Request), 0);
}

futures::Future<Bytes> Connection::call(Bytes Request,
                                        uint64_t DeadlineAfterNanos) {
  if (!ClientOpen.load(std::memory_order_acquire))
    return futures::Future<Bytes>::failed("connection closed");
  auto *Frame = runtime::heap::create<FrameNode>();
  uint64_t Id = NextRequestId.fetch_add(1, std::memory_order_relaxed);
  Frame->Wire.reserve(Request.size() + 8);
  for (int Shift = 0; Shift < 64; Shift += 8)
    Frame->Wire.push_back(static_cast<uint8_t>(Id >> Shift));
  Frame->Wire.insert(Frame->Wire.end(), Request.begin(), Request.end());
  runtime::noteObjectAlloc(); // the wire envelope
  futures::Future<Bytes> Fut = Frame->Reply.future();
  // The shard enforces the stamp at dequeue and again after the handler
  // ran (Reactor::deadlinePassed).
  if (DeadlineAfterNanos != 0)
    Frame->DeadlineNanos = wallNanos() + DeadlineAfterNanos;
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
  Ack.await();
}

//===----------------------------------------------------------------------===//
// Reactor
//===----------------------------------------------------------------------===//

Reactor::Reactor(Handler HandleFn, unsigned ShardCount)
    : Handle(std::move(HandleFn)) {
  assert(ShardCount > 0 && "reactor needs at least one shard");
  Shards.reserve(ShardCount);
  for (unsigned I = 0; I < ShardCount; ++I)
    Shards.push_back(std::make_unique<Shard>());
  for (auto &S : Shards)
    S->Loop = std::thread([this, Raw = S.get()] { shardLoop(*Raw); });
}

Reactor::~Reactor() {
  for (auto &S : Shards)
    S->Events.shutdown();
  for (auto &S : Shards)
    S->Loop.join();
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

bool Reactor::deadlinePassed(const FrameNode &Frame) {
  return Frame.DeadlineNanos != 0 && wallNanos() >= Frame.DeadlineNanos;
}

//===----------------------------------------------------------------------===//
// Shard event loop
//===----------------------------------------------------------------------===//

void Reactor::shardLoop(Shard &S) {
  std::vector<ReadyNode *> Batch;
  std::deque<Connection *> Run;
  for (;;) {
    // Block only when the run queue is dry; otherwise probe.
    bool Alive = S.Events.poll(Batch, /*Block=*/Run.empty());
    for (ReadyNode *N : Batch)
      Run.push_back(N->Conn);
    Batch.clear();

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
    // Disarm, then re-check behind a seq_cst fence (pairs with the fence
    // in Connection::submit between its push and its Armed exchange):
    // either we see the racing frame here,
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

  if (Frame->FrameKind == FrameNode::Kind::CloseMarker) {
    C.PeerClosed = true;
    C.State = Connection::RxState::Idle;
    // Everything queued before the marker was already processed (FIFO),
    // so the demux table is empty unless a response path was abandoned.
    for (auto &Entry : C.Pending)
      Entry.second.tryFailure("connection closed");
    C.Pending.clear();
    // Retire before the ack, so a caller returning from close() reads an
    // exact connectionsLive().
    retire(S, C);
    Frame->Reply.trySuccess({}); // drain-complete ack
    return;
  }

  if (C.PeerClosed) {
    // A call raced close(): the frame landed behind the marker, as on a
    // real socket that was already shut down.
    Frame->Reply.tryFailure("connection closed");
    return;
  }

  if (deadlinePassed(*Frame)) {
    // Expired while queued: fail without burning handler time.
    Frame->Reply.tryFailure("request deadline exceeded");
    return;
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
  // success.
  if (deadlinePassed(*Frame))
    P.tryFailure("request deadline exceeded");
  else
    P.trySuccess(std::move(Body));
}

void Reactor::retire(Shard &S, Connection &C) {
  if (C.Retired)
    return;
  C.Retired = true;
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
