//===- tests/netsim/NetSimTest.cpp ----------------------------------------==//

#include "netsim/NetSim.h"

#include "metrics/Metrics.h"

#include <gtest/gtest.h>

#include <latch>
#include <thread>

using namespace ren::netsim;
using namespace ren::metrics;

namespace {

Bytes toBytes(const std::string &S) { return Bytes(S.begin(), S.end()); }
std::string toString(const Bytes &B) {
  return std::string(B.begin(), B.end());
}

/// Echo with an "echo:" prefix.
Bytes echoHandler(const Bytes &Request) {
  std::string Body = "echo:" + toString(Request);
  return toBytes(Body);
}

} // namespace

TEST(ByteBufferTest, RoundTripsScalarsAndStrings) {
  ByteBuffer W;
  W.writeU32(0xDEADBEEF);
  W.writeU64(0x0123456789ABCDEFULL);
  W.writeString("hello, wire");
  ByteBuffer R(W.takeBytes());
  EXPECT_EQ(R.readU32(), 0xDEADBEEFu);
  EXPECT_EQ(R.readU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(R.readString(), "hello, wire");
  EXPECT_EQ(R.remaining(), 0u);
}

TEST(ByteBufferTest, EmptyString) {
  ByteBuffer W;
  W.writeString("");
  ByteBuffer R(W.takeBytes());
  EXPECT_EQ(R.readString(), "");
}

TEST(ChannelTest, SendThenRecv) {
  Channel C;
  C.send(toBytes("abc"));
  Bytes Frame;
  ASSERT_TRUE(C.recv(Frame));
  EXPECT_EQ(toString(Frame), "abc");
}

TEST(ChannelTest, RecvBlocksUntilSend) {
  Channel C;
  std::thread Sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    C.send(toBytes("late"));
  });
  Bytes Frame;
  ASSERT_TRUE(C.recv(Frame));
  EXPECT_EQ(toString(Frame), "late");
  Sender.join();
}

TEST(ChannelTest, CloseDrainsThenFails) {
  Channel C;
  C.send(toBytes("a"));
  C.close();
  Bytes Frame;
  EXPECT_TRUE(C.recv(Frame));
  EXPECT_FALSE(C.recv(Frame));
}

TEST(ChannelTest, SendAfterCloseIsDropped) {
  Channel C;
  C.close();
  C.send(toBytes("dropped"));
  Bytes Frame;
  EXPECT_FALSE(C.recv(Frame));
}

TEST(ServerTest, SingleRequestResponse) {
  Server Srv("echo", echoHandler, 2);
  auto Conn = Srv.connect();
  auto Response = Conn->call(toBytes("ping"));
  EXPECT_EQ(toString(Response.get()), "echo:ping");
  Conn->close();
}

TEST(ServerTest, PipelinedRequestsAllAnswered) {
  Server Srv("echo", echoHandler, 2);
  auto Conn = Srv.connect();
  std::vector<ren::futures::Future<Bytes>> Responses;
  for (int I = 0; I < 100; ++I)
    Responses.push_back(Conn->call(toBytes("r" + std::to_string(I))));
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(toString(Responses[I].get()), "echo:r" + std::to_string(I));
  EXPECT_EQ(Srv.requestsHandled(), 100u);
  Conn->close();
}

TEST(ServerTest, OneShardRunsOneHandlerAtATime) {
  // Every frame runs inline on its shard thread, so however many
  // connections share a shard, their handler calls never overlap. A slow
  // handler keeps each call open long enough for an overlap to show.
  std::atomic<int> Active{0};
  std::atomic<int> Peak{0};
  Server Srv("serial",
             [&](const Bytes &Request) {
               int Now = Active.fetch_add(1) + 1;
               int Seen = Peak.load();
               while (Now > Seen && !Peak.compare_exchange_weak(Seen, Now)) {
               }
               std::this_thread::sleep_for(std::chrono::microseconds(100));
               Active.fetch_sub(1);
               return echoHandler(Request);
             },
             1);
  constexpr int Conns = 4;
  constexpr int PerConn = 20;
  std::vector<std::unique_ptr<ClientConnection>> Clients;
  std::vector<ren::futures::Future<Bytes>> Responses;
  for (int C = 0; C < Conns; ++C)
    Clients.push_back(Srv.connect());
  for (int I = 0; I < PerConn; ++I)
    for (auto &Conn : Clients)
      Responses.push_back(Conn->call(toBytes(std::to_string(I))));
  for (size_t R = 0; R < Responses.size(); ++R)
    EXPECT_EQ(toString(Responses[R].get()),
              "echo:" + std::to_string(R / Conns));
  for (auto &Conn : Clients)
    Conn->close();
  EXPECT_EQ(Peak.load(), 1);
  EXPECT_EQ(Srv.requestsHandled(), static_cast<uint64_t>(Conns * PerConn));
}

TEST(ServerTest, MultipleConnectionsAreIndependent) {
  Server Srv("echo", echoHandler, 2);
  auto A = Srv.connect();
  auto B = Srv.connect();
  auto RA = A->call(toBytes("a"));
  auto RB = B->call(toBytes("b"));
  EXPECT_EQ(toString(RA.get()), "echo:a");
  EXPECT_EQ(toString(RB.get()), "echo:b");
  A->close();
  B->close();
}

TEST(ServerTest, ConcurrentClientsFloodServer) {
  Server Srv("echo", echoHandler, 3);
  constexpr int Clients = 4;
  constexpr int PerClient = 50;
  std::vector<std::thread> Threads;
  std::atomic<int> Correct{0};
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back([&] {
      auto Conn = Srv.connect();
      for (int I = 0; I < PerClient; ++I) {
        auto R = Conn->call(toBytes(std::to_string(I)));
        if (toString(R.get()) == "echo:" + std::to_string(I))
          Correct.fetch_add(1);
      }
      Conn->close();
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Correct.load(), Clients * PerClient);
  EXPECT_EQ(Srv.requestsHandled(),
            static_cast<uint64_t>(Clients) * PerClient);
}

TEST(ServerTest, CallAfterCloseFailsFast) {
  Server Srv("echo", echoHandler, 1);
  auto Conn = Srv.connect();
  Conn->close();
  auto R = Conn->call(toBytes("x"));
  EXPECT_TRUE(R.await().isFailure());
}

TEST(ServerTest, CloseDrainsQueuedFramesBeforeClosing) {
  // Regression: the pre-reactor teardown joined splice threads while
  // frames could still sit in the outbound queue, silently dropping
  // responses for requests that were accepted before close(). The
  // contract now is drain-before-close: every frame queued before the
  // close marker is processed and its response delivered, *then* the
  // connection closes. A slow handler makes the race window real.
  Server Srv("slow-echo",
             [](const Bytes &Request) {
               std::this_thread::sleep_for(std::chrono::microseconds(300));
               return echoHandler(Request);
             },
             1);
  auto Conn = Srv.connect();
  constexpr int Queued = 32;
  std::vector<ren::futures::Future<Bytes>> Responses;
  for (int I = 0; I < Queued; ++I)
    Responses.push_back(Conn->call(toBytes(std::to_string(I))));
  // Close immediately: nearly all frames are still queued behind the
  // slow handler.
  Conn->close();
  for (int I = 0; I < Queued; ++I) {
    ASSERT_TRUE(Responses[I].isCompleted())
        << "close() returned before the drain finished";
    const auto &R = Responses[I].await();
    ASSERT_TRUE(R.isSuccess())
        << "queued frame " << I << " was dropped by close: " << R.error();
    EXPECT_EQ(toString(R.value()), "echo:" + std::to_string(I));
  }
  EXPECT_EQ(Srv.requestsHandled(), static_cast<uint64_t>(Queued));
  // Post-close calls fail fast; the drained frames already answered.
  EXPECT_TRUE(Conn->call(toBytes("late")).await().isFailure());
}

TEST(ServerTest, ExpiredRequestsFailAtDequeueWithoutRunningHandler) {
  // One shard, so the blocker holds up every other connection: requests
  // queued behind it expire while they wait, and the shard must fail them
  // when it dequeues them, without running the handler.
  std::latch Entered(1), Release(1);
  Server Srv("deadline",
             [&](const Bytes &Request) {
               if (toString(Request) == "block") {
                 Entered.count_down();
                 Release.wait();
               }
               return echoHandler(Request);
             },
             1);
  constexpr uint64_t kShort = 1'000'000;     // 1 ms
  constexpr uint64_t kLong = 60'000'000'000; // 60 s
  auto Blocker = Srv.connect();
  auto Blocked = Blocker->call(toBytes("block"), kLong);
  // Queue the rest only once the handler holds the shard, so none of
  // them can overtake the blocker.
  Entered.wait();

  constexpr unsigned Conns = 2, PerConn = 6;
  std::vector<std::unique_ptr<ClientConnection>> Clients;
  for (unsigned C = 0; C < Conns; ++C)
    Clients.push_back(Srv.connect());
  struct Sent {
    std::string Body;
    bool Short;
    ren::futures::Future<Bytes> Response;
  };
  std::vector<Sent> Calls;
  for (unsigned R = 0; R < PerConn; ++R)
    for (unsigned C = 0; C < Conns; ++C) {
      std::string Body = std::to_string(C) + ":" + std::to_string(R);
      bool Short = (C + R) % 2 != 0;
      auto Response = Clients[C]->call(toBytes(Body), Short ? kShort : kLong);
      Calls.push_back({Body, Short, std::move(Response)});
    }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Release.count_down();

  EXPECT_EQ(toString(Blocked.get()), "echo:block");
  uint64_t LongCalls = 0;
  for (auto &Call : Calls) {
    const auto &T = Call.Response.await();
    if (Call.Short) {
      ASSERT_TRUE(T.isFailure()) << Call.Body << " outlived its deadline";
      EXPECT_EQ(T.error(), "request deadline exceeded") << Call.Body;
    } else {
      ++LongCalls;
      ASSERT_TRUE(T.isSuccess()) << Call.Body << ": " << T.error();
      EXPECT_EQ(toString(T.value()), "echo:" + Call.Body);
    }
  }
  // The handler ran for the blocker and the long-deadline requests only.
  EXPECT_EQ(Srv.requestsHandled(), 1 + LongCalls);

  Blocker->close();
  EXPECT_EQ(Srv.connectionsLive(), Conns);
  for (unsigned C = 0; C < Conns; ++C) {
    Clients[C]->close();
    EXPECT_EQ(Srv.connectionsLive(), Conns - 1 - C);
  }
  EXPECT_EQ(Srv.connectionsLive(), 0u);
}

TEST(ServerTest, RpcCountsMonitorMetrics) {
  MetricSnapshot Before = MetricsRegistry::get().snapshot();
  {
    Server Srv("echo", echoHandler, 2);
    auto Conn = Srv.connect();
    for (int I = 0; I < 20; ++I)
      Conn->call(toBytes("x")).get();
    Conn->close();
  }
  MetricSnapshot D =
      MetricSnapshot::delta(Before, MetricsRegistry::get().snapshot());
  EXPECT_GT(D.get(Metric::Synch), 0u);
  EXPECT_GT(D.get(Metric::Wait), 0u);
  EXPECT_GT(D.get(Metric::Notify), 0u);
  EXPECT_GE(D.get(Metric::Atomic), 20u) << "future completions";
}
