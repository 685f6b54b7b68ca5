//===- tests/netsim/ReactorDifferentialTest.cpp ---------------------------==//
//
// Differential testing of the reactor: the same randomized workloads run
// through the multi-shard reactor AND a sequential replay that feeds each
// connection's script, in order, to a fresh instance of the same handler
// on the test thread. The replay shares no code with the reactor, and the
// observable behaviour must agree — identical per-connection response
// ordering (FIFO) and identical response payload bytes. Handlers are
// interleaving-independent (stateless echo, or chirper-style state keyed
// purely per client), so any divergence is a reactor bug, not schedule
// noise.
//
//===----------------------------------------------------------------------===//

#include "netsim/NetSim.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace ren::netsim;
using ren::Xoshiro256StarStar;

namespace {

/// One scripted request stream per connection, generated up front from a
/// seed so the reactor and the replay see byte-identical traffic.
struct Script {
  std::vector<std::vector<Bytes>> PerConn; // [conn][request] payload
};

Script makeEchoScript(uint64_t Seed, unsigned Conns, unsigned PerConn) {
  Xoshiro256StarStar Rng(Seed);
  Script S;
  S.PerConn.resize(Conns);
  for (unsigned C = 0; C < Conns; ++C)
    for (unsigned R = 0; R < PerConn; ++R) {
      Bytes Payload(1 + Rng.nextBounded(96), 0);
      for (auto &B : Payload)
        B = static_cast<uint8_t>(Rng.nextBounded(256));
      S.PerConn[C].push_back(std::move(Payload));
    }
  return S;
}

/// Chirper-style script: ops carry (client id, op code, body) and the
/// handler keeps per-client state. Client id == connection index, so the
/// reactor's per-connection FIFO makes every client's state evolution —
/// and therefore every response — independent of cross-connection
/// interleaving.
Script makeChirperScript(uint64_t Seed, unsigned Conns, unsigned PerConn) {
  Xoshiro256StarStar Rng(Seed);
  Script S;
  S.PerConn.resize(Conns);
  for (unsigned C = 0; C < Conns; ++C)
    for (unsigned R = 0; R < PerConn; ++R) {
      ByteBuffer Req;
      Req.writeU32(C); // client id
      double Dice = Rng.nextDouble();
      if (Dice < 0.5) {
        Req.writeU32(1); // post
        Req.writeString("chirp-" + std::to_string(Rng.nextBounded(1000)));
      } else {
        Req.writeU32(2); // feed: render accumulated state
      }
      S.PerConn[C].push_back(Req.takeBytes());
    }
  return S;
}

/// Per-client fold over posts; responses expose the running state. The
/// mutex makes the map safe under multi-shard access; per-client values
/// are only ever touched by that client's (single) connection, in FIFO
/// order, so the lock serializes without deciding outcomes.
Handler makeChirperHandler(std::shared_ptr<std::mutex> Lock,
                           std::shared_ptr<std::map<uint32_t, uint64_t>>
                               StatePerClient) {
  return [Lock, StatePerClient](const Bytes &Request) {
    ByteBuffer In(Request);
    uint32_t Client = In.readU32();
    uint32_t Op = In.readU32();
    uint64_t State;
    {
      std::lock_guard<std::mutex> Guard(*Lock);
      uint64_t &Slot = (*StatePerClient)[Client];
      if (Op == 1) {
        std::string Msg = In.readString();
        for (unsigned char Ch : Msg)
          Slot = Slot * 1099511628211ULL + Ch; // FNV-style fold
      }
      State = Slot;
    }
    ByteBuffer Out;
    Out.writeU32(Op);
    Out.writeU64(State);
    return Out.takeBytes();
  };
}

/// The observable behaviour of one execution: per-connection response
/// payloads in completion order.
using Observed = std::vector<std::vector<Bytes>>;

/// The reference: each connection's script run in order through a fresh
/// handler from \p MakeHandler, on the calling thread.
Observed replaySequentially(const Script &S,
                            const std::function<Handler()> &MakeHandler) {
  Observed Logs(S.PerConn.size());
  for (size_t C = 0; C < S.PerConn.size(); ++C) {
    Handler Handle = MakeHandler();
    for (const Bytes &Payload : S.PerConn[C])
      Logs[C].push_back(Handle(Payload));
  }
  return Logs;
}

/// Replays \p S against \p Srv and collects per-connection responses in
/// the order they complete. Callbacks run on shard threads, so each
/// connection's log has its own lock (per-connection order is what the
/// differential contract is about; cross-connection order is
/// schedule-dependent by design and not compared). Every call carries
/// \p DeadlineAfterNanos (0 = none); a failed future fails the test.
Observed execute(Server &Srv, const Script &S,
                 uint64_t DeadlineAfterNanos = 0) {
  unsigned Conns = static_cast<unsigned>(S.PerConn.size());
  Observed Logs(Conns);
  std::vector<std::unique_ptr<std::mutex>> LogLocks;
  for (unsigned C = 0; C < Conns; ++C)
    LogLocks.push_back(std::make_unique<std::mutex>());

  std::vector<std::unique_ptr<ClientConnection>> Pool;
  for (unsigned C = 0; C < Conns; ++C)
    Pool.push_back(Srv.connect());
  for (unsigned C = 0; C < Conns; ++C)
    for (const Bytes &Payload : S.PerConn[C])
      Pool[C]->call(Payload, DeadlineAfterNanos).onComplete(
          ren::futures::InlineExecutor::get(),
          [&Logs, &LogLocks, C](const ren::futures::Try<Bytes> &T) {
            ASSERT_TRUE(T.isSuccess()) << T.error();
            std::lock_guard<std::mutex> Guard(*LogLocks[C]);
            Logs[C].push_back(T.value());
          });
  for (auto &Conn : Pool)
    Conn->close(); // drain-before-close: every response lands first
  return Logs;
}

/// Asserts that the reactor's per-connection responses equal the
/// reference's, response for response.
void expectAgree(const Script &S, const Observed &Reference,
                 const Observed &Real) {
  ASSERT_EQ(Reference.size(), Real.size());
  for (unsigned C = 0; C < Reference.size(); ++C) {
    ASSERT_EQ(Reference[C].size(), S.PerConn[C].size());
    ASSERT_EQ(Real[C].size(), S.PerConn[C].size())
        << "reactor dropped or duplicated responses on connection " << C;
    for (size_t R = 0; R < Reference[C].size(); ++R)
      ASSERT_EQ(Reference[C][R], Real[C][R])
          << "connection " << C << " response " << R
          << " diverged between the sequential replay and the reactor";
  }
}

void runDifferential(const std::string &Mix, uint64_t Seed, unsigned Conns,
                     unsigned PerConn, unsigned Shards) {
  SCOPED_TRACE(Mix + " seed=" + std::to_string(Seed) +
               " conns=" + std::to_string(Conns) +
               " shards=" + std::to_string(Shards));
  const bool Chirper = Mix == "chirper";
  Script S = Chirper ? makeChirperScript(Seed, Conns, PerConn)
                     : makeEchoScript(Seed, Conns, PerConn);

  auto MakeHandler = [Chirper]() -> Handler {
    if (!Chirper)
      return [](const Bytes &Request) { // echo with a marker byte
        Bytes Out = Request;
        Out.push_back(0xEE);
        return Out;
      };
    return makeChirperHandler(std::make_shared<std::mutex>(),
                              std::make_shared<std::map<uint32_t, uint64_t>>());
  };

  Observed Reference = replaySequentially(S, MakeHandler);
  Observed Real;
  {
    Server Srv("real", MakeHandler(), Shards);
    Real = execute(Srv, S);
  }
  expectAgree(S, Reference, Real);
}

} // namespace

TEST(ReactorDifferentialTest, EchoMixAgreesAcrossSeedsAndShards) {
  for (uint64_t Seed : {11ull, 4242ull, 0xdecafULL})
    for (unsigned Shards : {1u, 2u, 4u})
      runDifferential("echo", Seed, /*Conns=*/9, /*PerConn=*/17, Shards);
}

TEST(ReactorDifferentialTest, ChirperMixAgreesAcrossSeedsAndShards) {
  for (uint64_t Seed : {5ull, 777ull, 0xbeefULL})
    for (unsigned Shards : {1u, 2u, 4u})
      runDifferential("chirper", Seed, /*Conns=*/8, /*PerConn=*/21,
                      Shards);
}

TEST(ReactorDifferentialTest, RandomizedSizesStressTheEnvelopeCodec) {
  // Larger, skewed payload sizes; one seed per shard width.
  runDifferential("echo", 0xA5A5, /*Conns=*/4, /*PerConn=*/40, 2);
  runDifferential("chirper", 0x5A5A, /*Conns=*/12, /*PerConn=*/10, 4);
}

TEST(ReactorDifferentialTest, SlowHandlerMixAgreesWithDeadlinesArmed) {
  // Stalls and deadline checks must be invisible to the differential
  // contract: a handler that stalls (in the reactor only — the stall
  // changes timing, never bytes) holds up its shard while the other
  // connections' frames queue behind it, and every request carries a
  // deadline far beyond the run. Responses must still match the
  // sequential replay byte-for-byte in per-connection order; an armed
  // deadline that fired would fail a future, which execute() reports.
  constexpr uint64_t kGenerousDeadline = 60'000'000'000; // 60 s
  for (uint64_t Seed : {21ull, 0xfadedULL}) {
    SCOPED_TRACE("slow-mix seed=" + std::to_string(Seed));
    Script S = makeEchoScript(Seed, /*Conns=*/6, /*PerConn=*/24);
    auto MakeHandler = [](bool Stall) -> Handler {
      return [Stall](const Bytes &Request) {
        if (Stall && !Request.empty() && (Request[0] & 3) == 0)
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        Bytes Out = Request;
        Out.push_back(0x51);
        return Out;
      };
    };

    Observed Reference =
        replaySequentially(S, [&] { return MakeHandler(false); });
    Observed Real;
    {
      Server Srv("real", MakeHandler(true), /*Shards=*/2);
      Real = execute(Srv, S, kGenerousDeadline);
    }
    expectAgree(S, Reference, Real);
  }
}
