//===- tests/stress/NetSimReactorStressTest.cpp ---------------------------==//
//
// jcstress-style stress scenarios for the netsim reactor (ctest -L
// stress, TSan-targeted): connection close racing in-flight frames,
// shard-handoff under bursty multi-producer traffic, and the load
// generator's stop() racing pending futures. Servers are constructed once
// per scenario; each repetition opens fresh connections.
//
//===----------------------------------------------------------------------===//

#include "netsim/LoadGen.h"
#include "netsim/NetSim.h"
#include "stress/Stress.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace ren::netsim;
using namespace ren::stress;

namespace {

Bytes toBytes(const std::string &S) { return Bytes(S.begin(), S.end()); }
std::string toString(const Bytes &B) {
  return std::string(B.begin(), B.end());
}

/// Actor 0 streams calls while actor 1 closes the connection. Every
/// future must resolve, and the successes must be a FIFO prefix of actor
/// 0's send order: frames queued ahead of the close marker are drained
/// and answered, frames behind it fail "connection closed" — nothing is
/// ever dropped or reordered.
class CloseRacesInFlightFramesScenario : public StressScenario {
  static constexpr unsigned kCalls = 6;

public:
  CloseRacesInFlightFramesScenario()
      : Srv("close-race",
            [](const Bytes &Request) { return Request; }, 2) {}

  std::string name() const override { return "netsim-close-vs-calls"; }
  unsigned actors() const override { return 2; }

  void prepare() override {
    Conn = Srv.connect();
    Futures.clear();
    Futures.reserve(kCalls);
  }

  void run(unsigned Index, InterleavingNudge &Nudge) override {
    if (Index == 0) {
      for (unsigned I = 0; I < kCalls; ++I) {
        Nudge.pause();
        Futures.push_back(Conn->call(toBytes(std::to_string(I))));
      }
    } else {
      Nudge.pause();
      Conn->close();
    }
  }

  std::string observe() override {
    // All futures resolve: pre-marker frames at the ack, post-marker
    // frames when the shard's drain reaches them. await() is bounded.
    unsigned Ok = 0;
    bool Prefix = true;
    bool SawFailure = false;
    for (unsigned I = 0; I < Futures.size(); ++I) {
      const auto &R = Futures[I].await();
      if (R.isSuccess()) {
        if (SawFailure)
          Prefix = false; // success after a failure: frames reordered
        if (toString(R.value()) != std::to_string(I))
          return "corrupt-payload";
        ++Ok;
      } else {
        SawFailure = true;
      }
    }
    Conn.reset();
    if (!Prefix)
      return "non-prefix";
    return "prefix:" + std::to_string(Ok);
  }

  OutcomeSpec spec() const override {
    OutcomeSpec Spec;
    for (unsigned I = 0; I <= kCalls; ++I)
      Spec.accept("prefix:" + std::to_string(I),
                  I == kCalls ? "close landed after every frame"
                              : "close marker interleaved the stream");
    Spec.forbid("non-prefix", "a drained frame was answered out of order")
        .forbid("corrupt-payload", "response bytes mangled under the race");
    return Spec;
  }

private:
  Server Srv;
  std::unique_ptr<ClientConnection> Conn;
  std::vector<ren::futures::Future<Bytes>> Futures;
};

/// Bursty producers on two connections pinned to different shards: actors
/// 0 and 1 each own a connection, actor 2 sprays both. The edge-trigger
/// arm/disarm handshake must neither strand a frame (push racing disarm)
/// nor break each producer's FIFO order within a connection.
class ShardHandoffBurstScenario : public StressScenario {
  static constexpr unsigned kPerActor = 5;

public:
  ShardHandoffBurstScenario()
      : Srv("burst", [](const Bytes &Request) { return Request; }, 2) {}

  std::string name() const override { return "netsim-shard-handoff-burst"; }
  unsigned actors() const override { return 3; }

  void prepare() override {
    // Two fresh connections per repetition; round-robin assignment puts
    // them on different shards.
    Conns[0] = Srv.connect();
    Conns[1] = Srv.connect();
    for (auto &F : Sent)
      F.clear();
  }

  void run(unsigned Index, InterleavingNudge &Nudge) override {
    auto Push = [&](unsigned Conn, unsigned Seq) {
      Nudge.pause();
      Sent[Index].push_back(
          Conns[Conn]->call(toBytes(std::to_string(Index) + ":" +
                                    std::to_string(Seq))));
    };
    if (Index < 2) {
      for (unsigned I = 0; I < kPerActor; ++I)
        Push(Index, I);
    } else {
      // The spraying producer alternates connections per frame.
      for (unsigned I = 0; I < kPerActor; ++I)
        Push(I % 2, I);
    }
  }

  std::string observe() override {
    for (unsigned A = 0; A < 3; ++A)
      for (unsigned I = 0; I < Sent[A].size(); ++I) {
        const auto &R = Sent[A][I].await();
        if (R.isFailure())
          return "dropped"; // a pushed frame was stranded
        if (toString(R.value()) !=
            std::to_string(A) + ":" + std::to_string(I))
          return "corrupt-payload";
      }
    Conns[0]->close();
    Conns[1]->close();
    Conns[0].reset();
    Conns[1].reset();
    return "all-answered";
  }

  OutcomeSpec spec() const override {
    OutcomeSpec Spec;
    Spec.accept("all-answered",
                "every burst frame drained exactly once with its payload")
        .forbid("dropped", "edge-trigger handshake stranded a frame")
        .forbid("corrupt-payload", "demux crossed request streams");
    return Spec;
  }

private:
  Server Srv;
  std::unique_ptr<ClientConnection> Conns[2];
  std::vector<ren::futures::Future<Bytes>> Sent[3];
};

/// Actor 0 runs an open-loop LoadGen; actor 1 fires stop() into the run.
/// Whatever the timing, every *sent* request must resolve (success or
/// failure) before run() returns: Sent == Completed + Failed and the
/// histogram saw exactly the sent requests.
class LoadGenStopRaceScenario : public StressScenario {
public:
  LoadGenStopRaceScenario()
      : Srv("stoprace",
            [](const Bytes &Request) {
              std::this_thread::sleep_for(std::chrono::microseconds(50));
              return Request;
            },
            1) {}

  std::string name() const override { return "netsim-loadgen-stop-race"; }
  unsigned actors() const override { return 2; }

  void prepare() override {
    LoadGenOptions Opts;
    Opts.Requests = 600;
    Opts.Connections = 3;
    Opts.MaxInFlight = 8;
    Gen = std::make_unique<LoadGen>(Srv, Opts);
  }

  void run(unsigned Index, InterleavingNudge &Nudge) override {
    if (Index == 0) {
      Report = Gen->run();
    } else {
      Nudge.pause();
      Gen->stop();
    }
  }

  std::string observe() override {
    if (Report.Completed + Report.Failed != Report.Sent)
      return "unresolved:" +
             std::to_string(Report.Sent - Report.Completed - Report.Failed);
    if (Report.Histogram.count() != Report.Sent)
      return "histogram-mismatch";
    return Report.Sent < 600 ? "stopped-early" : "ran-to-completion";
  }

  OutcomeSpec spec() const override {
    OutcomeSpec Spec;
    Spec.accept("stopped-early", "stop() aborted the schedule cleanly")
        .interesting("ran-to-completion",
                     "stop() landed after the last send — legal but rare")
        .forbid("histogram-mismatch",
                "a latency sample was lost or double-counted")
        .forbid("unresolved:1", "a pending future leaked past run()");
    return Spec;
  }

private:
  Server Srv;
  std::unique_ptr<LoadGen> Gen;
  LoadReport Report;
};

/// Deadlined calls race the responses being produced for them: actor 0
/// streams short-deadline requests while actor 1 head-of-line-blocks the
/// same connection with plain traffic through a deliberately slow
/// handler. Every future must resolve exactly once — success with the
/// right payload, or "request deadline exceeded" from whichever of the
/// two real-mode expiry paths won (the check at dequeue, or the check
/// after the handler ran).
class TimeoutRacesInFlightResponseScenario : public StressScenario {
  static constexpr unsigned kDeadlined = 4;
  static constexpr unsigned kPlain = 6;

public:
  TimeoutRacesInFlightResponseScenario()
      : Srv("deadline-race",
            [](const Bytes &Request) {
              std::this_thread::sleep_for(std::chrono::microseconds(300));
              return Request;
            },
            1) {}

  std::string name() const override {
    return "netsim-timeout-vs-response";
  }
  unsigned actors() const override { return 2; }

  void prepare() override {
    Conn = Srv.connect();
    Deadlined.clear();
    Plain.clear();
  }

  void run(unsigned Index, InterleavingNudge &Nudge) override {
    if (Index == 0) {
      for (unsigned I = 0; I < kDeadlined; ++I) {
        Nudge.pause();
        Deadlined.push_back(Conn->call(toBytes("d" + std::to_string(I)),
                                       /*DeadlineAfterNanos=*/1'000'000));
      }
    } else {
      for (unsigned I = 0; I < kPlain; ++I) {
        Nudge.pause();
        Plain.push_back(Conn->call(toBytes("p" + std::to_string(I))));
      }
    }
  }

  std::string observe() override {
    unsigned Expired = 0;
    for (unsigned I = 0; I < Deadlined.size(); ++I) {
      const auto &R = Deadlined[I].await(); // bounded: expiry backstops it
      if (R.isSuccess()) {
        if (toString(R.value()) != "d" + std::to_string(I))
          return "corrupt-payload";
      } else if (R.error() != "request deadline exceeded") {
        return "wrong-error:" + R.error();
      } else {
        ++Expired;
      }
    }
    for (unsigned I = 0; I < Plain.size(); ++I) {
      const auto &R = Plain[I].await();
      if (R.isFailure())
        return "plain-failed";
      if (toString(R.value()) != "p" + std::to_string(I))
        return "corrupt-payload";
    }
    Conn->close();
    Conn.reset();
    return "expired:" + std::to_string(Expired);
  }

  OutcomeSpec spec() const override {
    OutcomeSpec Spec;
    for (unsigned I = 0; I <= kDeadlined; ++I)
      Spec.accept("expired:" + std::to_string(I),
                  I == 0 ? "every response beat its deadline"
                         : "some deadlines beat their responses");
    Spec.forbid("corrupt-payload", "expiry race mangled a response")
        .forbid("plain-failed", "an undeadlined request was expired")
        .forbid("wrong-error:request deadline exceeded",
                "unreachable sentinel"); // real wrong-errors carry text
    return Spec;
  }

private:
  Server Srv;
  std::unique_ptr<ClientConnection> Conn;
  std::vector<ren::futures::Future<Bytes>> Deadlined;
  std::vector<ren::futures::Future<Bytes>> Plain;
};

/// The idle-cull timer races a producer mid-send: the timeout is tuned to
/// the gap actor 0 leaves between frames, so the shard's cull (retire,
/// registry erase, fail-fast flag) interleaves with submit's push/arm/
/// notify on another thread. Every call resolves — echoed, or failed
/// with the idle-timeout error — and close() on a possibly-culled
/// connection still drains cleanly.
class CullRacesConcurrentSendScenario : public StressScenario {
  static constexpr unsigned kCalls = 5;

public:
  CullRacesConcurrentSendScenario()
      : Srv("cull-race", [](const Bytes &Request) { return Request; },
            [] {
              ServerOptions Opts;
              Opts.Shards = 1;
              Opts.IdleTimeoutNanos = 300'000; // ~one wheel tick of slack
              return Opts;
            }()) {}

  std::string name() const override { return "netsim-cull-vs-send"; }
  unsigned actors() const override { return 2; }

  void prepare() override {
    Conn = Srv.connect();
    Sent[0].clear();
    Sent[1].clear();
  }

  void run(unsigned Index, InterleavingNudge &Nudge) override {
    for (unsigned I = 0; I < kCalls; ++I) {
      // Gaps just past the timeout keep the cull and the next send in a
      // genuine race; the nudge jitters which side wins.
      std::this_thread::sleep_for(std::chrono::microseconds(
          Index == 0 ? 900 : 1300));
      Nudge.pause();
      Sent[Index].push_back(Conn->call(
          toBytes(std::to_string(Index) + ":" + std::to_string(I))));
    }
  }

  std::string observe() override {
    unsigned Culled = 0;
    for (unsigned A = 0; A < 2; ++A)
      for (unsigned I = 0; I < Sent[A].size(); ++I) {
        const auto &R = Sent[A][I].await();
        if (R.isSuccess()) {
          if (toString(R.value()) !=
              std::to_string(A) + ":" + std::to_string(I))
            return "corrupt-payload";
        } else if (R.error() != "connection idle timeout") {
          return "wrong-error:" + R.error();
        } else {
          ++Culled;
        }
      }
    Conn->close(); // must not hang even when the cull already retired us
    Conn.reset();
    return "culled:" + std::to_string(Culled);
  }

  OutcomeSpec spec() const override {
    OutcomeSpec Spec;
    for (unsigned I = 0; I <= 2 * kCalls; ++I)
      Spec.accept("culled:" + std::to_string(I),
                  I == 0 ? "traffic kept the connection alive throughout"
                         : "the cull landed between sends");
    Spec.forbid("corrupt-payload",
                "cull raced a drain into a mangled response")
        .forbid("wrong-error:connection idle timeout",
                "unreachable sentinel"); // real wrong-errors carry text
    return Spec;
  }

private:
  Server Srv;
  std::unique_ptr<ClientConnection> Conn;
  std::vector<ren::futures::Future<Bytes>> Sent[2];
};

} // namespace

TEST(NetSimReactorStress, CloseRacingInFlightFramesKeepsFifoPrefix) {
  CloseRacesInFlightFramesScenario S;
  StressRunner::Options Opts;
  Opts.Repetitions = 300;
  StressReport Report = StressRunner(Opts).run(S);
  EXPECT_TRUE(Report.passed()) << Report.summary();
}

TEST(NetSimReactorStress, ShardHandoffUnderBurstyProducers) {
  ShardHandoffBurstScenario S;
  StressRunner::Options Opts;
  Opts.Repetitions = 300;
  StressReport Report = StressRunner(Opts).run(S);
  EXPECT_TRUE(Report.passed()) << Report.summary();
}

TEST(NetSimReactorStress, LoadGenStopRacingPendingFutures) {
  LoadGenStopRaceScenario S;
  StressRunner::Options Opts;
  Opts.Repetitions = 40;
  StressReport Report = StressRunner(Opts).run(S);
  EXPECT_TRUE(Report.passed()) << Report.summary();
}

TEST(NetSimReactorStress, TimeoutRacingInFlightResponses) {
  TimeoutRacesInFlightResponseScenario S;
  StressRunner::Options Opts;
  Opts.Repetitions = 60;
  StressReport Report = StressRunner(Opts).run(S);
  EXPECT_TRUE(Report.passed()) << Report.summary();
}

TEST(NetSimReactorStress, IdleCullRacingConcurrentSends) {
  CullRacesConcurrentSendScenario S;
  StressRunner::Options Opts;
  Opts.Repetitions = 80;
  StressReport Report = StressRunner(Opts).run(S);
  EXPECT_TRUE(Report.passed()) << Report.summary();
}
