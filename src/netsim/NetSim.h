//===- netsim/NetSim.h - In-process loopback network ------------*- C++ -*-===//
//
// Part of Renaissance-C++, a reproduction of the PLDI'19 Renaissance paper.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-process "network": byte-frame request/response between client and
/// server endpoints, the substrate of finagle-http and finagle-chirper.
///
/// The paper encodes network benchmarks "as multiple threads that exercise
/// the network stack within a single process (using the loopback
/// interface)". Since the reactor rewrite, the stack is readiness-driven:
/// requests are serialized into byte frames, pushed onto lock-free
/// per-connection MPSC queues, drained by a small number of reactor shard
/// event loops (see Reactor.h), and responses are demuxed back onto
/// futures — no per-connection threads, so connection counts scale to the
/// tens of thousands the Finagle workloads assume.
///
/// Server/ClientConnection keep the original public surface; ServerOptions
/// (the reactor's own ReactorOptions) additionally exposes the shard
/// count, idle culling and the single-threaded deterministic-simulation
/// mode (seeded event ordering, virtual time) that the differential test
/// layer drives.
///
//===----------------------------------------------------------------------===//

#ifndef REN_NETSIM_NETSIM_H
#define REN_NETSIM_NETSIM_H

#include "futures/Future.h"
#include "netsim/Reactor.h"
#include "runtime/Monitor.h"

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace ren {
namespace netsim {

/// Little-endian serialization cursor over a byte frame.
class ByteBuffer {
public:
  ByteBuffer() = default;
  explicit ByteBuffer(Bytes Data) : Data(std::move(Data)) {}

  void writeU32(uint32_t V);
  void writeU64(uint64_t V);
  void writeString(const std::string &S);

  uint32_t readU32();
  uint64_t readU64();
  std::string readString();

  /// Remaining unread bytes.
  size_t remaining() const { return Data.size() - ReadPos; }

  const Bytes &bytes() const { return Data; }
  Bytes takeBytes() { return std::move(Data); }

private:
  Bytes Data;
  size_t ReadPos = 0;
};

/// A blocking MPMC frame queue modelling one direction of a socket.
///
/// Retained from the thread-per-connection era: the reactor no longer
/// routes frames through monitor-guarded channels, but Channel remains
/// the simplest blocking conduit for tests and workloads that want
/// wait/notify traffic (and it pins the Monitor-based queue semantics the
/// original netsim was built on).
class Channel {
public:
  /// Enqueues a frame and wakes a receiver.
  void send(Bytes Frame);

  /// Dequeues a frame, blocking while empty. \returns false when the
  /// channel is closed and drained.
  bool recv(Bytes &FrameOut);

  /// Closes the channel: pending frames still drain, then recv fails.
  void close();

  size_t pending();

private:
  runtime::Monitor Lock;
  std::deque<Bytes> Frames;
  bool Closed = false;
};

/// Server construction parameters: the reactor's options, used directly.
using ServerOptions = ReactorOptions;

/// A client connection handle: request/response with future-based
/// dispatch. Thin owner of a reactor Connection.
class ClientConnection {
public:
  ~ClientConnection();

  ClientConnection(const ClientConnection &) = delete;
  ClientConnection &operator=(const ClientConnection &) = delete;

  /// Sends \p Request and returns a future response.
  futures::Future<Bytes> call(Bytes Request);

  /// Like call(), but the response future fails with "request deadline
  /// exceeded" unless it completes within \p DeadlineAfterNanos
  /// (relative; virtual time in deterministic mode).
  futures::Future<Bytes> call(Bytes Request, uint64_t DeadlineAfterNanos);

  /// False once the server culled this connection for idleness (calls
  /// fail fast with "connection idle timeout").
  bool isServerOpen() const;

  /// Closes the connection (idempotent). Drain-before-close: requests
  /// already queued are still handled and their responses delivered
  /// before the close completes.
  void close();

private:
  friend class Server;
  explicit ClientConnection(std::shared_ptr<Connection> Conn);

  std::shared_ptr<Connection> Conn;
};

/// A server endpoint: a sharded reactor running \p Handler (see
/// Reactor.h). Every handler call runs inline on its connection's shard
/// thread: calls on one shard run one at a time, calls on different
/// shards run concurrently.
class Server {
public:
  /// Starts a reactor with \p Shards event-loop shards for service
  /// \p Name. (Pre-reactor code passed a worker count here; shards play
  /// the same capacity role without per-connection threads.)
  Server(std::string Name, Handler Handle, unsigned Shards);

  /// Full-control constructor (shard count, deterministic mode, seed).
  Server(std::string Name, Handler Handle, ServerOptions Opts);

  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Opens a connection to this server. Connections must be closed
  /// before the server is destroyed.
  std::unique_ptr<ClientConnection> connect();

  const std::string &name() const { return Name; }

  /// Total requests handled so far (exact once traffic quiesces).
  uint64_t requestsHandled();

  /// Connections currently registered: opened and neither closed nor
  /// culled-and-released — the observable the idle-cull memory claim is
  /// tested against.
  size_t connectionsLive() const;

  /// Number of reactor shards backing this server.
  unsigned shards() const;

  /// True when constructed in deterministic-simulation mode.
  bool deterministic() const;

  //===--------------------------------------------------------------===//
  // Deterministic-simulation driving (Deterministic servers only)
  //===--------------------------------------------------------------===//

  /// Processes up to \p MaxFrames queued frames in seeded order.
  size_t pump(size_t MaxFrames = SIZE_MAX);

  /// Pumps until every queue is empty. \returns frames processed.
  size_t runUntilIdle();

  /// The simulation's virtual clock (deterministic per schedule).
  uint64_t virtualNanos() const;

  /// Advances the virtual clock by \p Nanos and fires every timer that
  /// came due — the sim-mode path to idle timeouts and request deadlines
  /// without queueing traffic.
  void advanceVirtualTime(uint64_t Nanos);

  /// True when nothing is queued (sim mode only).
  bool idle() const;

private:
  std::string Name;
  std::unique_ptr<Reactor> Core;
};

} // namespace netsim
} // namespace ren

#endif // REN_NETSIM_NETSIM_H
