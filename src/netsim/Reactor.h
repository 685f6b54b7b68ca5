//===- netsim/Reactor.h - Event-driven loopback reactor ---------*- C++ -*-===//
//
// Part of Renaissance-C++, a reproduction of the PLDI'19 Renaissance paper.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The readiness-driven core of the loopback network. Where the original
/// netsim spent one pump thread and one splice thread per connection, the
/// reactor runs a small fixed number of *shards*, each an event loop over
/// a Poller. A connection is a passive state machine: client threads push
/// wire frames onto its lock-free MPSC inbound queue (forkjoin/MpscQueue)
/// and deliver an edge-triggered readiness event; the owning shard drains
/// the queue in FIFO order, runs the request through the server handler,
/// and demuxes the response envelope back onto the future that the call
/// registered — no per-connection thread anywhere, so tens of thousands
/// of concurrent connections cost tens of megabytes, not tens of
/// thousands of stacks.
///
/// Edge-trigger protocol (per connection): a producer that pushes a frame
/// arms the connection with one exchange; only the false->true edge
/// enqueues a readiness node, so a flood of producers costs one poller
/// event. The shard disarms *before* its final emptiness re-check (with a
/// seq_cst fence against the producer's push+arm sequence), so a frame
/// that races the disarm is either seen by the re-check or re-arms and
/// re-notifies — never stranded.
///
/// Budgeted batch draining carries the reactor from the 10^4-connection
/// regime toward 10^5-10^6: a shard drains at most Reactor::kDrainBudget
/// frames per connection per round, then requeues the connection behind
/// the rest of the round's batch — one chatty connection cannot starve
/// the other 10^5 on its shard. A requeued connection stays armed, so the
/// seq_cst disarm/re-check fence pair is paid once per *drained*
/// connection, not once per budget slice. Every frame runs inline on its
/// shard thread.
///
/// Request deadlines have one mechanism: a call stamps its frame with an
/// absolute deadline on the wall clock, and the shard checks the stamp
/// when it dequeues the frame and again after the handler ran. An expired
/// request fails with "request deadline exceeded"; nothing fires on a
/// timer, so a shard with no traffic never wakes.
///
/// The shard count is the reactor's only setting.
///
//===----------------------------------------------------------------------===//

#ifndef REN_NETSIM_REACTOR_H
#define REN_NETSIM_REACTOR_H

#include "forkjoin/MpscQueue.h"
#include "futures/Future.h"
#include "netsim/Poller.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace ren {
namespace netsim {

/// A wire frame.
using Bytes = std::vector<uint8_t>;

/// Handles one request payload and produces a response payload. Handler
/// calls run inline on the connection's shard thread: calls on one shard
/// run one at a time, calls on different shards run concurrently — so
/// handlers that mutate shared state must synchronize, exactly as Finagle
/// service functions must.
using Handler = std::function<Bytes(const Bytes &)>;

class Reactor;

/// A queued wire frame: an intrusive MPSC node carrying the id-prefixed
/// envelope plus the promise the response demuxes onto (for close
/// markers, the promise acks that the drain finished). Owned by the queue
/// from push until the shard processes and frees it.
struct FrameNode : forkjoin::MpscNode {
  enum class Kind : uint8_t { Request, CloseMarker };
  Kind FrameKind = Kind::Request;
  /// Absolute deadline for Request frames on the shard clock (0 = none):
  /// the future fails with "request deadline exceeded" instead of
  /// completing late.
  uint64_t DeadlineNanos = 0;
  Bytes Wire;
  futures::Promise<Bytes> Reply;
};

/// One client<->server connection: a passive state machine owned by a
/// reactor shard. Thread-safe on the producer side (call/close may come
/// from any thread); all Rx state below the marked line is touched only
/// by the owning shard.
class Connection {
public:
  ~Connection();

  Connection(const Connection &) = delete;
  Connection &operator=(const Connection &) = delete;

  /// Sends \p Request and returns a future response. After close() the
  /// call fails fast; a call racing close() may be failed by the shard
  /// with the same "connection closed" error.
  futures::Future<Bytes> call(Bytes Request);

  /// Like call(), but the response future fails with "request deadline
  /// exceeded" unless it completes within \p DeadlineAfterNanos
  /// (relative to now).
  futures::Future<Bytes> call(Bytes Request, uint64_t DeadlineAfterNanos);

  /// Drain-before-close: enqueues a close marker *behind* every frame
  /// already pushed and blocks until the shard has processed them all —
  /// requests queued before close() still get their responses, and only
  /// then does the connection close. Idempotent.
  void close();

  bool isOpen() const {
    return ClientOpen.load(std::memory_order_acquire);
  }

  uint32_t id() const { return ConnId; }

  /// Frames this connection's shard has fully processed (shard-private
  /// counter; read it only after the connection quiesced, e.g. post
  /// close()).
  uint64_t framesHandled() const { return FramesHandled; }

private:
  friend class Reactor;
  Connection(Reactor &Owner, unsigned ShardIndex, uint32_t ConnId);

  /// Pushes \p Frame and delivers the readiness edge if this push
  /// transitioned the connection empty -> non-empty.
  void submit(FrameNode *Frame);

  Reactor &Owner;
  const unsigned ShardIndex;
  const uint32_t ConnId;

  ReadyNode Node; ///< intrusive readiness event, enqueued at most once
  forkjoin::MpscQueue Inbound;
  std::atomic<bool> Armed{false};
  std::atomic<bool> ClientOpen{true};
  std::atomic<uint64_t> NextRequestId{1};

  // --- shard-private state machine below this line ---
  enum class RxState : uint8_t { Idle, Dispatching, Responding };
  RxState State = RxState::Idle;
  bool PeerClosed = false;
  /// Set once the shard has handed this connection to the graveyard
  /// (close marker processed); guards double-retirement.
  bool Retired = false;
  /// The response demux table: request id -> promise, registered when
  /// the shard reads the request header, erased when the response
  /// envelope comes back from the handler.
  std::unordered_map<uint64_t, futures::Promise<Bytes>> Pending;
  uint64_t FramesHandled = 0;
};

/// The reactor: shards, pollers and the connection registry.
class Reactor {
public:
  /// Starts \p Shards event-loop shards, one thread each; connections are
  /// assigned to them round-robin.
  Reactor(Handler Handle, unsigned Shards);
  ~Reactor();

  Reactor(const Reactor &) = delete;
  Reactor &operator=(const Reactor &) = delete;

  /// Opens a connection, assigning it to a shard round-robin.
  std::shared_ptr<Connection> open();

  /// Total request frames handled across all shards (racy snapshot while
  /// traffic is in flight, exact once quiesced).
  uint64_t requestsHandled() const;

  /// Connections currently in the registry: opened and not yet closed.
  size_t connectionsLive() const;

  unsigned shards() const { return static_cast<unsigned>(Shards.size()); }

  /// Frames a shard drains from one connection per round before the
  /// connection is requeued behind the round's other ready connections.
  static constexpr unsigned kDrainBudget = 32;

private:
  friend class Connection;

  struct Shard {
    Poller Events;
    std::thread Loop;
    std::atomic<uint64_t> Handled{0};
    /// Retired connections whose memory cannot be released yet: the
    /// client still holds the handle, or a late producer may still hold
    /// a raw pointer (Armed). Swept incrementally at the bottom of every
    /// round — a bounded slice per pass, resumed at SweepCursor, so a
    /// mass teardown (10^6 clients closing before dropping their
    /// handles) costs O(N) total instead of O(N^2).
    std::vector<std::shared_ptr<Connection>> Graveyard;
    size_t SweepCursor = 0;
  };

  void shardLoop(Shard &S);

  /// Drains up to kDrainBudget frames from \p C with the disarm/re-check
  /// protocol. \returns true when the connection must be requeued on the
  /// shard's run queue (budget exhausted with frames left, still armed);
  /// false when fully drained (disarmed).
  bool drainBudgeted(Shard &S, Connection &C);

  /// Processes one frame on \p C's state machine: decode, register the
  /// demux entry, dispatch the handler, encode, demux onto the future.
  /// Takes ownership of \p Frame.
  void processFrame(Shard &S, Connection &C, FrameNode *Frame);

  /// True when \p Frame carries a deadline the wall clock has reached.
  static bool deadlinePassed(const FrameNode &Frame);

  /// Moves \p C from the registry to \p S's graveyard (idempotent).
  void retire(Shard &S, Connection &C);

  /// Releases graveyard connections nobody can reach anymore.
  void sweepGraveyard(Shard &S);

  Handler Handle;
  std::vector<std::unique_ptr<Shard>> Shards;

  std::atomic<uint32_t> NextConnId{1};
  std::atomic<unsigned> NextShard{0};

  /// Registry keeping connections alive while reachable: readiness nodes
  /// carry raw Connection pointers, so a connection must outlive any
  /// event that may still name it. Closed connections move to their
  /// shard's graveyard and are released once the client handle is gone
  /// and the connection is disarmed.
  mutable std::mutex ConnLock;
  std::unordered_map<uint32_t, std::shared_ptr<Connection>> Registry;
};

} // namespace netsim
} // namespace ren

#endif // REN_NETSIM_REACTOR_H
