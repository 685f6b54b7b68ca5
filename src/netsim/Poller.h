//===- netsim/Poller.h - Readiness pollers for the reactor ------*- C++ -*-===//
//
// Part of Renaissance-C++, a reproduction of the PLDI'19 Renaissance paper.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The readiness interface of the netsim reactor. A shard's event loop
/// calls Poller::poll for connections whose inbound frame queue
/// transitioned empty -> non-empty: it blocks when the shard has nothing
/// else to do and probes without blocking otherwise. There is no timed
/// wait — nothing in the reactor is due at a time. Producers deliver the
/// edge with Poller::notify. The interface is the seam that gives the
/// reactor its two personalities:
///
///  - ThreadPoller: the real multi-shard reactor. An MPSC queue of
///    intrusive readiness nodes plus a Parker for the shard thread;
///    producers are wait-free except one exchange, the consumer spins
///    briefly and then parks. The sleep/wake handshake is the classic
///    Dekker store-fence-load: the consumer publishes Sleeping and
///    re-drains behind a seq_cst fence, the producer pushes and reads
///    Sleeping behind one, so the store-buffering outcome (lost wakeup)
///    is excluded.
///
///  - SimPoller: the deterministic-simulation backbone. No threads, no
///    blocking: readiness is a plain vector the simulation driver pops
///    from in seeded-random order under virtual time. Everything that
///    runs on a ThreadPoller runs on a SimPoller with identical
///    per-connection semantics, which is what the differential tests
///    exploit.
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
  virtual ~Poller();

  /// Delivers a readiness edge. Thread-safe; called by whichever thread
  /// enqueued the frame that made the connection readable.
  virtual void notify(ReadyNode *N) = 0;

  /// Appends pending readiness events to \p Out. With \p Block, waits
  /// until at least one event arrives or the poller shuts down; without
  /// it, probes and may append nothing.
  /// \returns false once the poller is shut down *and* drained — the
  /// event loop's exit condition (events queued before shutdown are
  /// still delivered, so no armed connection is ever stranded).
  virtual bool poll(std::vector<ReadyNode *> &Out, bool Block = true) = 0;

  /// Initiates shutdown: poll stops blocking, drains what is queued, and
  /// then reports exhaustion.
  virtual void shutdown() = 0;
};

/// The real poller: one per reactor shard thread.
class ThreadPoller final : public Poller {
public:
  void notify(ReadyNode *N) override;
  bool poll(std::vector<ReadyNode *> &Out, bool Block = true) override;
  void shutdown() override;

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

/// The deterministic poller: single-threaded, non-blocking. The sim
/// driver owns event ordering, so poll simply hands over everything
/// queued; no parking, no fences needed (the mode contract is that all
/// producers and the pump run on one thread).
class SimPoller final : public Poller {
public:
  void notify(ReadyNode *N) override { Ready.push_back(N); }

  bool poll(std::vector<ReadyNode *> &Out, bool Block = true) override {
    (void)Block; // never blocks: the sim driver owns time
    Out.insert(Out.end(), Ready.begin(), Ready.end());
    Ready.clear();
    return !Down;
  }

  void shutdown() override { Down = true; }

  bool idle() const { return Ready.empty(); }

private:
  std::vector<ReadyNode *> Ready;
  bool Down = false;
};

} // namespace netsim
} // namespace ren

#endif // REN_NETSIM_POLLER_H
