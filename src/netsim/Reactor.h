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
/// Two mechanisms carry the reactor from the 10^4-connection regime
/// toward 10^5-10^6:
///
///  - *Budgeted batch draining*: a shard drains at most
///    Reactor::kDrainBudget frames per connection per round, then
///    requeues the connection behind the rest of the round's batch — one
///    chatty connection cannot starve the other 10^5 on its shard. A
///    requeued connection stays armed, so the seq_cst disarm/re-check
///    fence pair is paid once per *drained* connection, not once per
///    budget slice. Every frame runs inline on its shard thread.
///
///  - *Timer-wheel timeouts and culling*: each shard owns a hashed
///    hierarchical TimerWheel (O(1) schedule/cancel) advanced every poll
///    round — by the wall clock in real mode, by the virtual clock in sim
///    mode. It drives connection idle timeouts (idle connections are
///    *culled*: server-side closed, failed fast, and their memory
///    reclaimed once the client lets go) and request deadlines (surfaced
///    as failed futures). Culling is what keeps 10^5-10^6 mostly-idle
///    connections from pinning memory for the lifetime of the reactor.
///
/// Deterministic-simulation mode: constructed with
/// ReactorOptions::Deterministic, the reactor spawns no threads and runs
/// on SimPollers. A single driving thread issues calls and then pumps the
/// reactor explicitly; the pump picks the next ready connection with a
/// seeded RNG (exploring cross-connection orderings) while preserving
/// per-connection FIFO, and advances a virtual clock per frame. Timer
/// wheels run on the virtual clock, so timeout firing order is a pure
/// function of the seed and the schedule. Same seed, same schedule, same
/// virtual time — the proof substrate the differential and regression
/// tests in tests/netsim build on.
///
//===----------------------------------------------------------------------===//

#ifndef REN_NETSIM_REACTOR_H
#define REN_NETSIM_REACTOR_H

#include "forkjoin/MpscQueue.h"
#include "futures/Future.h"
#include "netsim/Poller.h"
#include "netsim/TimerWheel.h"
#include "support/Rng.h"

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
  enum class Kind : uint8_t {
    Request,
    CloseMarker,
    /// Announces a new connection to its shard so the shard can schedule
    /// the idle timer. Only submitted when idle timeouts are enabled;
    /// carries no payload, expects no reply, advances no clock.
    Register,
  };
  Kind FrameKind = Kind::Request;
  /// Absolute deadline for Request frames (0 = none): the future fails
  /// with "request deadline exceeded" instead of completing late.
  uint64_t DeadlineNanos = 0;
  Bytes Wire;
  futures::Promise<Bytes> Reply;
};

/// One client<->server connection: a passive state machine owned by a
/// reactor shard. Thread-safe on the producer side (call/close may come
/// from any thread; in deterministic mode, from the single driving
/// thread); all Rx state below the marked line is touched only by the
/// owning shard.
class Connection {
public:
  ~Connection();

  Connection(const Connection &) = delete;
  Connection &operator=(const Connection &) = delete;

  /// Sends \p Request and returns a future response. After close() the
  /// call fails fast; a call racing close() may be failed by the shard
  /// with the same "connection closed" error. After an idle cull the
  /// call fails fast with "connection idle timeout".
  futures::Future<Bytes> call(Bytes Request);

  /// Like call(), but the response future fails with "request deadline
  /// exceeded" unless it completes within \p DeadlineAfterNanos
  /// (relative to now; virtual time in deterministic mode).
  futures::Future<Bytes> call(Bytes Request, uint64_t DeadlineAfterNanos);

  /// Drain-before-close: enqueues a close marker *behind* every frame
  /// already pushed and blocks until the shard has processed them all —
  /// requests queued before close() still get their responses, and only
  /// then does the connection close. Idempotent. In deterministic mode
  /// this pumps the simulation inline instead of blocking.
  void close();

  bool isOpen() const {
    return ClientOpen.load(std::memory_order_acquire);
  }

  /// False once the server side culled this connection for idleness.
  bool isServerOpen() const {
    return ServerOpen.load(std::memory_order_acquire);
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
  /// Cleared by the shard when the idle cull closes the server side.
  std::atomic<bool> ServerOpen{true};
  std::atomic<uint64_t> NextRequestId{1};

  // --- shard-private state machine below this line ---
  enum class RxState : uint8_t { Idle, Dispatching, Responding };
  RxState State = RxState::Idle;
  bool PeerClosed = false;
  /// Set by the idle cull: subsequent requests fail instead of running.
  bool Culled = false;
  /// Set once the shard has handed this connection to the graveyard
  /// (close marker processed or culled); guards double-retirement.
  bool Retired = false;
  /// Idle timer, embedded so arming a connection's timeout never
  /// allocates. Scheduled/cancelled/fired only by the owning shard.
  TimerNode IdleTimer;
  /// Timestamp of the last processed frame (shard clock), the idle
  /// timer's re-arm basis.
  uint64_t LastActivityNanos = 0;
  /// The response demux table: request id -> promise, registered when
  /// the shard reads the request header, erased when the response
  /// envelope comes back from the handler.
  std::unordered_map<uint64_t, futures::Promise<Bytes>> Pending;
  uint64_t FramesHandled = 0;
};

/// Reactor (and netsim::Server) construction parameters.
struct ReactorOptions {
  /// Event-loop shards, each one thread in real mode; connections are
  /// assigned round-robin.
  unsigned Shards = 1;
  /// No threads: SimPollers plus an explicit pump (Reactor::pump,
  /// Server::pump) with seeded event ordering and virtual time.
  bool Deterministic = false;
  /// Seed for the deterministic pump's event ordering.
  uint64_t Seed = 0x5eedc0de;
  /// Cull connections idle longer than this (0 = never). Idle-culled
  /// connections fail fast on call() and their memory is reclaimed once
  /// the client drops its handle.
  uint64_t IdleTimeoutNanos = 0;
};

/// The reactor: shards, pollers, timer wheels, and the connection
/// registry.
class Reactor {
public:
  Reactor(Handler Handle, ReactorOptions Opts);
  ~Reactor();

  Reactor(const Reactor &) = delete;
  Reactor &operator=(const Reactor &) = delete;

  /// Opens a connection, assigning it to a shard round-robin.
  std::shared_ptr<Connection> open();

  /// Total request frames handled across all shards (racy snapshot while
  /// traffic is in flight, exact once quiesced).
  uint64_t requestsHandled() const;

  /// Connections currently in the registry: opened and neither closed
  /// nor culled-and-released. The cull path's memory claim is asserted
  /// against this (plus RSS in bench_netsim).
  size_t connectionsLive() const;

  unsigned shards() const { return static_cast<unsigned>(Shards.size()); }
  bool deterministic() const { return Opts.Deterministic; }

  //===--------------------------------------------------------------===//
  // Deterministic-simulation driving (Deterministic reactors only)
  //===--------------------------------------------------------------===//

  /// Processes up to \p MaxFrames frames in seeded-random cross-connection
  /// order (FIFO within each connection). \returns frames processed.
  size_t pump(size_t MaxFrames = SIZE_MAX);

  /// Pumps until no connection is ready. \returns frames processed.
  size_t runUntilIdle() { return pump(SIZE_MAX); }

  /// True when no frame is queued anywhere (sim mode).
  bool idle() const;

  /// The simulation's virtual clock: advances a deterministic amount per
  /// processed frame (kSimFrameNanos + size * kSimByteNanos).
  uint64_t virtualNanos() const { return SimNanos; }

  /// Advances the virtual clock by \p Nanos and fires every timer that
  /// became due — the sim-mode way to reach idle timeouts and request
  /// deadlines without queueing traffic.
  void advanceVirtualTime(uint64_t Nanos);

  static constexpr uint64_t kSimFrameNanos = 1000;
  static constexpr uint64_t kSimByteNanos = 2;

  /// Frames a shard drains from one connection per round before the
  /// connection is requeued behind the round's other ready connections.
  static constexpr unsigned kDrainBudget = 32;

private:
  friend class Connection;

  struct Shard {
    std::unique_ptr<Poller> Events;
    std::unique_ptr<TimerWheel> Wheel;
    std::thread Loop; ///< real mode only
    std::atomic<uint64_t> Handled{0};
    /// Shard clock, refreshed once per round (wall in real mode, the
    /// virtual clock in sim mode); timestamp basis for idle tracking and
    /// deadline pre-checks.
    uint64_t NowNanos = 0;
    /// Retired connections whose memory cannot be released yet: the
    /// client still holds the handle, or a late producer may still hold
    /// a raw pointer (Armed). Swept incrementally at the bottom of every
    /// round — a bounded slice per pass, resumed at SweepCursor, so a
    /// mass teardown (10^6 clients closing before dropping their
    /// handles) costs O(N) total instead of O(N^2).
    std::vector<std::shared_ptr<Connection>> Graveyard;
    size_t SweepCursor = 0;
    /// Expired-timer scratch for advanceTimers (avoids a per-round
    /// allocation).
    std::vector<TimerNode *> FiredScratch;
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

  /// Dispatches one expired timer (idle cull or request deadline).
  void fireTimer(Shard &S, TimerNode *T);

  /// Advances \p S's wheel to the shard clock and fires what expired.
  void advanceTimers(Shard &S);

  /// Server-side close for an idle connection: fail fast from now on,
  /// then retire.
  void cull(Shard &S, Connection &C);

  /// Moves \p C from the registry to \p S's graveyard (idempotent).
  void retire(Shard &S, Connection &C);

  /// Releases graveyard connections nobody can reach anymore.
  void sweepGraveyard(Shard &S);

  /// Sim mode: refill SimReady from the shards' SimPollers.
  void gatherSimReady();

  Handler Handle;
  ReactorOptions Opts;
  std::vector<std::unique_ptr<Shard>> Shards;

  std::atomic<uint32_t> NextConnId{1};
  std::atomic<unsigned> NextShard{0};

  /// Registry keeping connections alive while reachable: readiness nodes
  /// carry raw Connection pointers, so a connection must outlive any
  /// event that may still name it. Closed/culled connections move to
  /// their shard's graveyard and are released once the client handle is
  /// gone and the connection is disarmed.
  mutable std::mutex ConnLock;
  std::unordered_map<uint32_t, std::shared_ptr<Connection>> Registry;

  // Sim-mode state (single driving thread).
  Xoshiro256StarStar SimRng;
  uint64_t SimNanos = 0;
  std::vector<Connection *> SimReady;
};

} // namespace netsim
} // namespace ren

#endif // REN_NETSIM_REACTOR_H
