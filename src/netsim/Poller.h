//===- netsim/Poller.h - Readiness poller for the reactor -------*- C++ -*-===//
//
// Part of Renaissance-C++, a reproduction of the PLDI'19 Renaissance paper.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The readiness source of a netsim reactor shard. The shard's event loop
/// calls Poller::poll for connections whose inbound frame queue
/// transitioned empty -> non-empty: it blocks when the shard has nothing
/// else to do and probes without blocking otherwise. There is no timed
/// wait — nothing in the reactor is due at a time. Producers deliver the
/// edge with Poller::notify.
///
/// One poller per shard thread: an MPSC queue of intrusive readiness
/// nodes plus a Parker for the shard thread; producers are wait-free
/// except one exchange, the consumer spins briefly and then parks. The
/// sleep/wake handshake is the classic Dekker store-fence-load: the
/// consumer publishes Sleeping and re-drains behind a seq_cst fence, the
/// producer pushes and reads Sleeping behind one, so the store-buffering
/// outcome (lost wakeup) is excluded.
///
//===----------------------------------------------------------------------===//

#ifndef REN_NETSIM_POLLER_H
#define REN_NETSIM_POLLER_H

#include "forkjoin/MpscQueue.h"
#include "runtime/Park.h"

#include <atomic>
#include <vector>

namespace ren {
namespace netsim {

class Connection;

/// One readiness event: "this connection's inbound queue became
/// non-empty". Embedded in the Connection it describes, so arming a
/// connection never allocates. The edge-trigger dedup flag on the
/// Connection guarantees the node is enqueued at most once at a time.
struct ReadyNode : forkjoin::MpscNode {
  Connection *Conn = nullptr;
};

/// The readiness source a reactor shard's event loop runs on.
class Poller {
public:
  /// Delivers a readiness edge. Thread-safe; called by whichever thread
  /// enqueued the frame that made the connection readable.
  void notify(ReadyNode *N);

  /// Appends pending readiness events to \p Out. With \p Block, waits
  /// until at least one event arrives or the poller shuts down; without
  /// it, probes and may append nothing.
  /// \returns false once the poller is shut down *and* drained — the
  /// event loop's exit condition (events queued before shutdown are
  /// still delivered, so no armed connection is ever stranded).
  bool poll(std::vector<ReadyNode *> &Out, bool Block = true);

  /// Initiates shutdown: poll stops blocking, drains what is queued, and
  /// then reports exhaustion.
  void shutdown();

private:
  /// Drains every currently-linked node into \p Out. \returns true if
  /// anything was appended.
  bool drain(std::vector<ReadyNode *> &Out);

  forkjoin::MpscQueue Events;
  std::atomic<bool> Sleeping{false};
  std::atomic<bool> ShuttingDown{false};
  /// The shard thread's parker, published on first poll so any producer
  /// can wake it.
  std::atomic<runtime::Parker *> Waiter{nullptr};
};

} // namespace netsim
} // namespace ren

#endif // REN_NETSIM_POLLER_H
