//===- tests/netsim/NetSimStressTest.cpp ----------------------------------==//
//
// Failure-injection and stress tests for the loopback network: connection
// teardown racing in-flight requests, worker-count sweeps, large frames.
//
//===----------------------------------------------------------------------===//

#include "netsim/NetSim.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace ren::netsim;

namespace {

Bytes toBytes(const std::string &S) { return Bytes(S.begin(), S.end()); }

} // namespace

class ServerWorkerSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(ServerWorkerSweep, AllRequestsAnsweredForAnyWorkerCount) {
  Server Srv("echo", [](const Bytes &B) { return B; }, GetParam());
  auto Conn = Srv.connect();
  std::vector<ren::futures::Future<Bytes>> Responses;
  for (int I = 0; I < 200; ++I)
    Responses.push_back(Conn->call({static_cast<uint8_t>(I)}));
  for (int I = 0; I < 200; ++I) {
    const Bytes &R = Responses[I].get();
    ASSERT_EQ(R.size(), 1u);
    ASSERT_EQ(R[0], static_cast<uint8_t>(I));
  }
  Conn->close();
}

INSTANTIATE_TEST_SUITE_P(Workers, ServerWorkerSweep,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(NetSimFailureTest, CloseWithInFlightRequestsFailsThemCleanly) {
  // A slow handler guarantees requests are still in flight when the
  // client tears the connection down; every future must complete (either
  // with the response or with the connection-closed failure), never hang.
  Server Srv("slow", [](const Bytes &B) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return B;
  }, 1);
  auto Conn = Srv.connect();
  std::vector<ren::futures::Future<Bytes>> InFlight;
  for (int I = 0; I < 32; ++I)
    InFlight.push_back(Conn->call(toBytes("x")));
  Conn->close();
  unsigned Succeeded = 0, Failed = 0;
  for (auto &F : InFlight) {
    const auto &R = F.await(); // must not hang
    R.isSuccess() ? ++Succeeded : ++Failed;
  }
  EXPECT_EQ(Succeeded + Failed, 32u);
}

TEST(NetSimFailureTest, DoubleCloseIsIdempotent) {
  Server Srv("echo", [](const Bytes &B) { return B; }, 1);
  auto Conn = Srv.connect();
  Conn->close();
  Conn->close();
  SUCCEED();
}

TEST(NetSimStressTest, LargeFramesRoundTrip) {
  Server Srv("echo", [](const Bytes &B) { return B; }, 2);
  auto Conn = Srv.connect();
  Bytes Big(1 << 20);
  for (size_t I = 0; I < Big.size(); ++I)
    Big[I] = static_cast<uint8_t>(I * 31);
  // Keep the future alive while using the reference its get() returns.
  auto Response = Conn->call(Big);
  EXPECT_EQ(Response.get(), Big);
  Conn->close();
}

TEST(NetSimStressTest, ManyShortLivedConnections) {
  Server Srv("echo", [](const Bytes &B) { return B; }, 2);
  for (int C = 0; C < 40; ++C) {
    auto Conn = Srv.connect();
    EXPECT_EQ(Srv.connectionsLive(), 1u);
    auto Response = Conn->call({7});
    EXPECT_EQ(Response.get(), (Bytes{7}));
    Conn->close();
    // close() returns only after the shard retired the connection, so
    // the registry has already let go while the client holds its handle.
    EXPECT_EQ(Srv.connectionsLive(), 0u) << "connection " << C;
  }
  EXPECT_EQ(Srv.requestsHandled(), 40u);
  EXPECT_EQ(Srv.connectionsLive(), 0u);
}

TEST(NetSimStressTest, InterleavedClientsUnderLoad) {
  std::atomic<int> Correct{0};
  {
    Server Srv("sum", [](const Bytes &B) {
      uint8_t Sum = 0;
      for (uint8_t V : B)
        Sum = static_cast<uint8_t>(Sum + V);
      return Bytes{Sum};
    }, 3);
    std::vector<std::thread> Clients;
    for (int T = 0; T < 3; ++T)
      Clients.emplace_back([&, T] {
        auto Conn = Srv.connect();
        for (int I = 0; I < 60; ++I) {
          Bytes Req = {static_cast<uint8_t>(T), static_cast<uint8_t>(I)};
          auto Response = Conn->call(Req);
          const Bytes &R = Response.get();
          if (R.size() == 1 && R[0] == static_cast<uint8_t>(T + I))
            Correct.fetch_add(1);
        }
        Conn->close();
      });
    for (auto &C : Clients)
      C.join();
  }
  EXPECT_EQ(Correct.load(), 180);
}
