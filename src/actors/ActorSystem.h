//===- actors/ActorSystem.h - Message-passing actors ------------*- C++ -*-===//
//
// Part of Renaissance-C++, a reproduction of the PLDI'19 Renaissance paper.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal actor framework modelling Akka / Reactors, the substrate of
/// the akka-uct and reactors benchmarks.
///
/// Faithful to the Akka execution model and its metric profile:
///  - mailboxes are lock-free MPSC structures; every enqueue is a counted
///    CAS (Metric::Atomic) — akka-uct's dominant metric in Table 7;
///  - an actor is scheduled onto the fork/join pool with a CAS on its
///    scheduling flag and processes up to a throughput batch of messages
///    per activation;
///  - idle pool workers park (Metric::Park);
///  - message delivery invokes the actor's virtual \c receive
///    (Metric::Method) and message envelopes are counted allocations.
///
//===----------------------------------------------------------------------===//

#ifndef REN_ACTORS_ACTORSYSTEM_H
#define REN_ACTORS_ACTORSYSTEM_H

#include "forkjoin/ForkJoinPool.h"
#include "futures/Future.h"
#include "runtime/Alloc.h"
#include "runtime/Atomic.h"
#include "runtime/Monitor.h"

#include <cassert>
#include <memory>
#include <utility>
#include <vector>

namespace ren {
namespace actors {

class ActorSystem;
template <typename MsgT> class ActorRef;

namespace detail {

/// Type-erased base so the system can retain heterogeneous cells.
class CellBase {
public:
  virtual ~CellBase() = default;

  /// Destroys the contained actor instance. Called during system shutdown
  /// to break ActorRef reference cycles (actors routinely hold refs to
  /// each other and to themselves).
  virtual void dropActor() = 0;
};

} // namespace detail

/// Base class for user actors processing messages of type \p MsgT.
template <typename MsgT> class Actor {
public:
  using MessageType = MsgT;

  virtual ~Actor() = default;

  /// Handles one message. Runs single-threaded per actor (the actor
  /// invariant), but different actors run concurrently.
  virtual void receive(MsgT Message) = 0;

  /// The owning system (valid after spawn).
  ActorSystem &system() {
    assert(OwningSystem && "actor not yet spawned");
    return *OwningSystem;
  }

  /// This actor's own address (valid after spawn), as in Akka's
  /// context.self.
  const ActorRef<MsgT> &self() const {
    return Self;
  }

private:
  template <typename T> friend class Cell;
  friend class ActorSystem;
  ActorSystem *OwningSystem = nullptr;
  ActorRef<MsgT> Self;
};

/// The runtime cell binding an actor to its mailbox and scheduling state.
template <typename MsgT> class Cell : public detail::CellBase {
public:
  Cell(ActorSystem &System, runtime::Ref<Actor<MsgT>> Instance)
      : System(System), Instance(std::move(Instance)) {
    this->Instance->OwningSystem = &System;
  }

  ~Cell() override {
    // Drain any undelivered messages (system shut down mid-flight).
    Node *N = Head.getAndSet(nullptr);
    while (N) {
      Node *Next = N->Next;
      runtime::heap::destroy(N);
      N = Next;
    }
    while (Pending) {
      Node *Next = Pending->Next;
      runtime::heap::destroy(Pending);
      Pending = Next;
    }
  }

  void dropActor() override { Instance.reset(); }

  /// Installs the actor's own address (called once by spawn).
  void setSelf(const ActorRef<MsgT> &Ref) { Instance->Self = Ref; }

  /// Enqueues \p Message and schedules the actor if necessary.
  void tell(MsgT Message);

private:
  friend class ActorRef<MsgT>;
  friend class ActorSystem;

  struct Node {
    explicit Node(MsgT M) : Message(std::move(M)) {}
    MsgT Message;
    Node *Next = nullptr;
  };

  /// Messages processed per activation before rescheduling (Akka calls
  /// this the dispatcher throughput).
  static constexpr int kThroughput = 64;

  void schedule();
  void process();

  ActorSystem &System;
  runtime::Ref<Actor<MsgT>> Instance;
  // Treiber-stack mailbox head (newest first); reversed at consume time.
  runtime::Atomic<Node *> Head{nullptr};
  // Pending messages in arrival order, owned by the processing activation.
  Node *Pending = nullptr;
  runtime::Atomic<int> Scheduled{0};
};

/// A shareable handle used to send messages to an actor.
template <typename MsgT> class ActorRef {
public:
  ActorRef() = default;
  explicit ActorRef(std::shared_ptr<Cell<MsgT>> C) : CellPtr(std::move(C)) {}

  bool valid() const { return CellPtr != nullptr; }

  /// Asynchronously delivers \p Message (Akka's "tell" / "!").
  void tell(MsgT Message) const {
    assert(CellPtr && "tell on an empty ActorRef");
    CellPtr->tell(std::move(Message));
  }

  /// The ask pattern (Akka's "?"): sends a message built by
  /// \p MakeMessage from a reply promise and returns the future reply.
  /// The actor completes the promise it receives inside the message.
  template <typename ReplyT, typename MakeMessageT>
  futures::Future<ReplyT> ask(MakeMessageT MakeMessage) const {
    futures::Promise<ReplyT> Reply;
    tell(MakeMessage(Reply));
    return Reply.future();
  }

private:
  std::shared_ptr<Cell<MsgT>> CellPtr;
};

/// Owns the worker pool and the actor cells.
class ActorSystem {
public:
  /// Creates a system backed by \p Parallelism pool workers.
  explicit ActorSystem(unsigned Parallelism = 0);
  ~ActorSystem();

  ActorSystem(const ActorSystem &) = delete;
  ActorSystem &operator=(const ActorSystem &) = delete;

  /// Instantiates an actor and returns a ref to it.
  template <typename ActorT, typename... ArgTs>
  ActorRef<typename ActorT::MessageType> spawn(ArgTs &&...Args) {
    using MsgT = typename ActorT::MessageType;
    auto Instance = runtime::newObject<ActorT>(std::forward<ArgTs>(Args)...);
    auto CellPtr = runtime::newShared<Cell<MsgT>>(*this, std::move(Instance));
    ActorRef<MsgT> Ref(CellPtr);
    CellPtr->setSelf(Ref);
    {
      runtime::Synchronized Sync(CellsLock);
      Cells.push_back(CellPtr);
    }
    return Ref;
  }

  /// Blocks until no message is pending or being processed. Only
  /// meaningful once the workload's initial messages have been sent.
  void awaitQuiescence();

  forkjoin::ForkJoinPool &pool() { return *PoolPtr; }

private:
  template <typename T> friend class Cell;

  void notePending();
  void noteProcessed();

  runtime::Monitor CellsLock;
  std::vector<std::shared_ptr<detail::CellBase>> Cells;

  runtime::Atomic<long> PendingMessages{0};
  runtime::Monitor QuiescenceMonitor;

  // Held by pointer so the destructor can stop the workers *before*
  // tearing down cells (actors hold ActorRef cycles that dropActor breaks).
  std::unique_ptr<forkjoin::ForkJoinPool> PoolPtr;
};

template <typename MsgT> void Cell<MsgT>::tell(MsgT Message) {
  System.notePending();
  runtime::noteObjectAlloc(); // message envelope
  Node *N = runtime::heap::create<Node>(std::move(Message));
  // Lock-free push: CAS retry on the mailbox head.
  Node *OldHead = Head.load(std::memory_order_relaxed);
  do {
    N->Next = OldHead;
  } while (!Head.compareAndSwap(OldHead, N));
  schedule();
}

template <typename MsgT> void Cell<MsgT>::schedule() {
  // Fire-and-forget activation: nobody joins it (quiescence is tracked by
  // the message counter), so take the handle-free fast path.
  if (Scheduled.compareAndSet(0, 1))
    System.PoolPtr->forkDetached([this] { process(); });
}

template <typename MsgT> void Cell<MsgT>::process() {
  for (int Processed = 0; Processed < kThroughput; ++Processed) {
    if (!Pending) {
      // Grab the whole mailbox and restore arrival order.
      Node *Grabbed = Head.getAndSet(nullptr);
      while (Grabbed) {
        Node *Next = Grabbed->Next;
        Grabbed->Next = Pending;
        Pending = Grabbed;
        Grabbed = Next;
      }
    }
    if (!Pending)
      break;
    Node *N = Pending;
    Pending = N->Next;
    // Virtual dispatch into user code, counted like invokevirtual.
    runtime::virtualCall(Instance.get(), &Actor<MsgT>::receive,
                         std::move(N->Message));
    runtime::heap::destroy(N);
    System.noteProcessed();
  }

  // Deactivate, then re-check for messages that raced with deactivation.
  // Pending must be read *before* the release of Scheduled: activations
  // are serialized by the Scheduled flag, so the field is ours only until
  // that store — afterwards the next activation may already be mutating
  // it. A stale HadPending merely schedules a redundant (empty)
  // activation. The store of Scheduled and the load of Head must both be
  // seq_cst: with tell's seq_cst push-then-CAS they form a Dekker pair, so
  // either this load sees the new message or that CAS sees Scheduled == 0.
  // Release/acquire would let the load pass the store, and a message could
  // be stranded with every worker parked.
  bool HadPending = Pending != nullptr;
  Scheduled.store(0);
  if (HadPending || Head.load())
    schedule();
}

} // namespace actors
} // namespace ren

#endif // REN_ACTORS_ACTORSYSTEM_H
