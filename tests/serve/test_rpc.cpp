// Cross-process RPC tier suite: ShardServer + RemoteShard + the router's
// health-checked auto-drain, over real loopback sockets.
//
// The contract under test, in order of importance:
//  1. The remote path is BIT-IDENTICAL to the in-process path: a
//     ShardRouter fronting remote replicas returns exactly
//     FusedModel::scores for every record (the wire format ships raw
//     IEEE-754 bit patterns both ways, so there is nothing to round).
//  2. Shard death is survivable: stopping a shard server trips the
//     health monitor's auto-drain; once drained, every subsequent client
//     request succeeds (zero failures) and stays bit-identical. A shard
//     that comes back is auto-restored.
//  3. The server is robust to hostile/broken peers: malformed frames
//     poison only that connection, never the server or other clients.
//
// Servers here live in the test process (real sockets, separate engine
// instances) — from the client's perspective indistinguishable from
// another process; CI additionally runs the two-process topology via
// `muffin_cli serve --listen` (see .github/workflows/ci.yml).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/router.h"
#include "serve/rpc/server.h"
#include "serve/stats.h"
#include "serve_test_util.h"
#include "tensor/ops.h"

namespace muffin::serve {
namespace {

using namespace std::chrono_literals;

const data::Dataset& rpc_dataset() {
  static const data::Dataset ds = data::synthetic_isic2019(600, 47);
  return ds;
}

const models::ModelPool& rpc_pool() {
  static const models::ModelPool pool =
      models::calibrated_isic_pool(rpc_dataset());
  return pool;
}

std::shared_ptr<core::FusedModel> make_fused() {
  static const std::shared_ptr<core::FusedModel> shared =
      testutil::build_fused(rpc_pool(), rpc_dataset(), /*epochs=*/5);
  return shared;
}

rpc::RemoteShardConfig fast_client() {
  rpc::RemoteShardConfig config;
  config.connections = 2;
  config.max_batch = 16;
  config.connect_timeout = 500ms;
  config.request_timeout = 5000ms;
  config.probe_timeout = 500ms;
  return config;
}

/// Request frames every RemoteShard in this process has sent.
std::uint64_t frames_sent() {
  return obs::registry().snapshot().counter_value("rpc.client.frames_sent");
}

/// Wait until `predicate` holds or `deadline_ms` expires.
bool eventually(const std::function<bool()>& predicate,
                std::size_t deadline_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(10ms);
  }
  return predicate();
}

/// Dial both of a fresh two-connection shard's connections: one
/// connection holds two frames, so a third, held 50 ms by the scoring
/// delay, leaves on the second.
testing::AssertionResult open_both_connections(rpc::RemoteShard& shard) {
  std::span<const data::Record> records = rpc_dataset().records();
  const std::uint64_t before = frames_sent();
  const fail::ScopedFailpoints hold("serve.engine.score=delay:50ms");
  std::vector<std::future<Prediction>> futures;
  for (std::size_t i = 0; i < 3; ++i) {
    futures.push_back(shard.submit(records[i]));
    if (!eventually([&]() { return frames_sent() - before == i + 1; })) {
      return testing::AssertionFailure() << "frame " << i + 1 << " never left";
    }
  }
  for (std::future<Prediction>& future : futures) (void)future.get();
  if (shard.connect_attempts() != 2) {
    return testing::AssertionFailure()
           << shard.connect_attempts() << " dials, not 2";
  }
  return testing::AssertionSuccess();
}

TEST(RemoteShard, BitIdenticalOverTcp) {
  const auto fused = make_fused();
  rpc::ShardServer server(fused, "127.0.0.1:0");
  rpc::RemoteShard shard(server.address(), fast_client());

  std::span<const data::Record> records = rpc_dataset().records();
  std::vector<std::future<Prediction>> futures;
  for (std::size_t i = 0; i < 200; ++i) {
    futures.push_back(shard.submit(records[i]));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Prediction prediction = futures[i].get();
    const tensor::Vector expected =
        testutil::canonical_scores(fused->scores(records[i]));
    ASSERT_EQ(prediction.scores, expected) << "record " << i;
    ASSERT_EQ(prediction.predicted, tensor::argmax(expected));
  }
  EXPECT_EQ(shard.metrics().counter_value("engine.requests"), 200u);
  EXPECT_EQ(shard.consecutive_failures(), 0u);
  shard.shutdown();
  server.stop();
}

TEST(RemoteShard, BitIdenticalOverUnixDomainSocket) {
  const auto fused = make_fused();
  const std::string path =
      "unix:/tmp/muffin_rpc_test_" + std::to_string(::getpid()) + ".sock";
  rpc::ShardServer server(fused, path);
  rpc::RemoteShard shard(server.address(), fast_client());

  std::span<const data::Record> records = rpc_dataset().records();
  for (std::size_t i = 0; i < 50; ++i) {
    const Prediction prediction = shard.submit(records[i]).get();
    ASSERT_EQ(prediction.scores, testutil::canonical_scores(fused->scores(records[i]))) << "record " << i;
  }
  shard.shutdown();
  server.stop();
}

TEST(RemoteShard, PipelinedBatchesFromManyThreads) {
  const auto fused = make_fused();
  rpc::ShardServer server(fused, "127.0.0.1:0");
  // One connection has two frame slots for four callers, and the scoring
  // delay holds each frame, so requests that arrive meanwhile queue and
  // leave together.
  rpc::RemoteShardConfig config = fast_client();
  config.connections = 1;
  rpc::RemoteShard shard(server.address(), config);
  const fail::ScopedFailpoints hold("serve.engine.score=delay:1ms");

  std::span<const data::Record> records = rpc_dataset().records();
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 100;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t]() {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const data::Record& record = records[(t * 131 + i * 17) % 400];
        const Prediction prediction = shard.submit(record).get();
        if (prediction.scores != testutil::canonical_scores(fused->scores(record))) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0u);
  const obs::MetricsSnapshot observed = shard.metrics();
  EXPECT_EQ(observed.counter_value("engine.requests"), kClients * kPerClient);
  // Queued requests share frames: fewer frames than requests.
  EXPECT_LT(observed.counter_value("engine.batches"), kClients * kPerClient);
  shard.shutdown();
  server.stop();
}

TEST(RemoteShard, SendsWhatIsQueuedWhileASlotIsFree) {
  // No flush timer: a connection sends whatever is queued while fewer
  // than two of its frames are unanswered. The scoring delay holds each
  // frame 100 ms, so the two slots alone decide when frames leave.
  const auto fused = make_fused();
  rpc::ShardServer server(fused, "127.0.0.1:0");
  rpc::RemoteShardConfig config = fast_client();
  config.connections = 1;
  rpc::RemoteShard shard(server.address(), config);
  std::span<const data::Record> records = rpc_dataset().records();
  const fail::ScopedFailpoints hold("serve.engine.score=delay:100ms");
  const std::uint64_t before = frames_sent();
  const auto sent = [&]() { return frames_sent() - before; };

  // Two lone submits leave at once, as two frames.
  std::vector<std::future<Prediction>> futures;
  futures.push_back(shard.submit(records[0]));
  ASSERT_TRUE(eventually([&]() { return sent() == 1; }));
  futures.push_back(shard.submit(records[1]));
  ASSERT_TRUE(eventually([&]() { return sent() == 2; }));
  // Both slots are taken: 32 more stay queued...
  for (std::size_t i = 2; i < 34; ++i) {
    futures.push_back(shard.submit(records[i]));
  }
  std::this_thread::sleep_for(30ms);
  EXPECT_EQ(sent(), 2u);
  // ...until each reply frees a slot; then they leave as 16 + 16.
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].get().scores,
              testutil::canonical_scores(fused->scores(records[i])))
        << "record " << i;
  }
  EXPECT_EQ(sent(), 4u);
  EXPECT_EQ(shard.metrics().counter_value("engine.batches"), 4u);
  shard.shutdown();
  server.stop();
}

TEST(RemoteShard, ABurstLeavesOnEveryConnectionBeforeAReply) {
  // A thread that takes a frame and leaves work queued wakes a waiting
  // sibling, so a burst bigger than one connection's two frames fills the
  // slots of both connections at once.
  const auto fused = make_fused();
  rpc::ShardServer server(fused, "127.0.0.1:0");
  rpc::RemoteShard shard(server.address(), fast_client());
  std::span<const data::Record> records = rpc_dataset().records();
  ASSERT_TRUE(open_both_connections(shard));

  // 64 rows are four 16-row frames: two per connection.
  const fail::ScopedFailpoints hold("serve.engine.score=delay:100ms");
  const std::uint64_t burst = frames_sent();
  std::vector<std::future<Prediction>> futures;
  for (std::size_t i = 0; i < 64; ++i) {
    futures.push_back(shard.submit(records[10 + i]));
  }
  EXPECT_TRUE(eventually([&]() { return frames_sent() - burst >= 4; }, 80))
      << "frames sent: " << frames_sent() - burst;
  EXPECT_EQ(futures.front().wait_for(0s), std::future_status::timeout)
      << "a reply came back before the fourth frame left";
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].get().scores,
              testutil::canonical_scores(fused->scores(records[10 + i])))
        << "record " << 10 + i;
  }
  shard.shutdown();
  server.stop();
}

TEST(RemoteShard, ABacklogFailsAtTheRequestDeadline) {
  // A request's deadline runs from submit(), through the client's queue
  // and its frame: a backlog behind a server that answers each frame in
  // time, but too slowly for the backlog, fails at the deadline instead of
  // waiting its turn.
  const auto fused = make_fused();
  rpc::ShardServer server(fused, "127.0.0.1:0");
  rpc::RemoteShardConfig config = fast_client();
  config.connections = 1;
  config.request_timeout = 300ms;
  rpc::RemoteShard shard(server.address(), config);
  std::span<const data::Record> records = rpc_dataset().records();
  const fail::ScopedFailpoints hold("serve.engine.score=delay:250ms");
  std::vector<std::chrono::steady_clock::time_point> submitted;
  std::vector<std::future<Prediction>> futures;
  for (std::size_t i = 0; i < 200; ++i) {
    submitted.push_back(std::chrono::steady_clock::now());
    futures.push_back(shard.submit(records[i]));
  }
  // Each request is answered or failed by its own deadline, plus slack
  // for the thread that notices it. Wall-clock bounds mean nothing under
  // TSan's ~10x slowdown, so only the regular builds enforce it.
  std::size_t timed_out = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
#if !MUFFIN_UNDER_TSAN
    ASSERT_EQ(futures[i].wait_until(submitted[i] + config.request_timeout +
                                    200ms),
              std::future_status::ready)
        << "request " << i << ", submitted "
        << std::chrono::duration<double, std::milli>(submitted[i] -
                                                     submitted.front())
               .count()
        << " ms after the first";
#endif
    try {
      ASSERT_EQ(futures[i].get().scores,
                testutil::canonical_scores(fused->scores(records[i])))
          << "request " << i;
    } catch (const Error& error) {
      EXPECT_NE(std::string(error.what()).find("timed out"), std::string::npos)
          << error.what();
      ++timed_out;
    }
  }
  EXPECT_GT(timed_out, 0u);
  EXPECT_GE(shard.consecutive_failures(), 1u);
  shard.shutdown();
  server.stop();
}

TEST(RemoteShard, ShutdownAnswersEverythingQueuedBehindAHeldFrame) {
  // shutdown() sends and answers what callers already submitted: the
  // connection's thread keeps going until its queue and its frames are
  // empty, and only then exits.
  const auto fused = make_fused();
  rpc::ShardServer server(fused, "127.0.0.1:0");
  rpc::RemoteShardConfig config = fast_client();
  config.connections = 1;
  rpc::RemoteShard shard(server.address(), config);
  std::span<const data::Record> records = rpc_dataset().records();
  const fail::ScopedFailpoints hold("serve.engine.score=delay:100ms");
  const std::uint64_t before = frames_sent();

  std::vector<std::future<Prediction>> futures;
  futures.push_back(shard.submit(records[0]));
  ASSERT_TRUE(eventually([&]() { return frames_sent() - before == 1; }));
  for (std::size_t i = 1; i <= 40; ++i) {
    futures.push_back(shard.submit(records[i]));
  }
  shard.shutdown();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(0s), std::future_status::ready)
        << "record " << i;
    ASSERT_EQ(futures[i].get().scores,
              testutil::canonical_scores(fused->scores(records[i])))
        << "record " << i;
  }
  server.stop();
}

TEST(RemoteShard, BatchesMoveToTheSiblingWhenAConnectionCannotRedial) {
  // A batch fails for want of a transport only when no pooled connection
  // can carry it: one connection that cannot redial leaves the work to
  // its open sibling.
  const auto fused = make_fused();
  rpc::ShardServer server(fused, "127.0.0.1:0");
  rpc::RemoteShard shard(server.address(), fast_client());
  std::span<const data::Record> records = rpc_dataset().records();
  ASSERT_TRUE(open_both_connections(shard));
  {
    // The first connection's send fails, which closes it...
    const fail::ScopedFailpoints send_fault("rpc.client.send=error");
    EXPECT_THROW((void)shard.submit(records[3]).get(), Error);
  }
  // ...and its redial fails too. Two held frames fill the sibling's
  // slots, so the rest wake the closed connection, whose dial fails:
  // every request still succeeds, on the sibling.
  const fail::ScopedFailpoints faults(
      "rpc.client.connect=error;serve.engine.score=delay:100ms");
  const std::uint64_t dial_faults = fail::hits("rpc.client.connect");
  const std::uint64_t sent_before = frames_sent();
  std::vector<std::future<Prediction>> futures;
  for (std::size_t i = 0; i < 40; ++i) {
    futures.push_back(shard.submit(records[10 + i]));
    if (i < 2) {
      ASSERT_TRUE(
          eventually([&]() { return frames_sent() - sent_before == i + 1; }));
    }
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].get().scores,
              testutil::canonical_scores(fused->scores(records[10 + i])))
        << "record " << 10 + i;
  }
  EXPECT_GT(fail::hits("rpc.client.connect"), dial_faults);
  EXPECT_EQ(shard.consecutive_failures(), 0u);
  shard.shutdown();
  server.stop();
}

TEST(RemoteShard, IdleConnectionsTheServerClosedAreRedialed) {
  // A server restarted on the same path while the client sits idle: the
  // waiting connection threads see the EOF and redial for the next batch,
  // so not one request fails.
  const auto fused = make_fused();
  const std::string path =
      "unix:/tmp/muffin_rpc_idle_" + std::to_string(::getpid()) + ".sock";
  auto server = std::make_unique<rpc::ShardServer>(fused, path);
  rpc::RemoteShard shard(path, fast_client());
  std::span<const data::Record> records = rpc_dataset().records();
  const auto serve_40 = [&]() {
    std::vector<std::future<Prediction>> futures;
    for (std::size_t i = 0; i < 40; ++i) {
      futures.push_back(shard.submit(records[i]));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      ASSERT_EQ(futures[i].get().scores,
                testutil::canonical_scores(fused->scores(records[i])))
          << "record " << i;
    }
  };
  serve_40();
  server->stop();
  server = std::make_unique<rpc::ShardServer>(fused, path);
  serve_40();
  EXPECT_EQ(shard.consecutive_failures(), 0u);
  shard.shutdown();
  server->stop();
}

TEST(RemoteShard, RepeatsAreServedFromTheServerMemo) {
  const auto fused = make_fused();
  rpc::ShardServer server(fused, "127.0.0.1:0");
  rpc::RemoteShard shard(server.address(), fast_client());
  std::span<const data::Record> records = rpc_dataset().records();

  std::vector<std::future<Prediction>> first;
  for (std::size_t i = 0; i < 50; ++i) first.push_back(shard.submit(records[i]));
  for (std::future<Prediction>& future : first) (void)future.get();
  // Repeat pass: the cached flag crosses the wire.
  ASSERT_GE(server.engine().cache_entries(), 50u);
  std::vector<std::future<Prediction>> second;
  for (std::size_t i = 0; i < 50; ++i) {
    second.push_back(shard.submit(records[i]));
  }
  std::size_t cached = 0;
  for (std::future<Prediction>& future : second) {
    if (future.get().cached) ++cached;
  }
  EXPECT_EQ(cached, 50u);
  EXPECT_EQ(shard.metrics().counter_value("engine.cache_hits"), 50u);
  shard.shutdown();
  server.stop();
}

TEST(RemoteShard, ProbeReflectsServerLiveness) {
  const auto fused = make_fused();
  auto server = std::make_unique<rpc::ShardServer>(fused, "127.0.0.1:0");
  const std::string address = server->address();
  rpc::RemoteShard shard(address, fast_client());
  EXPECT_TRUE(shard.probe());
  server->stop();
  EXPECT_FALSE(shard.probe());
  server.reset();
  EXPECT_FALSE(shard.probe());
  shard.shutdown();
}

TEST(RemoteShard, DeadServerFailsFuturesAndCountsFailures) {
  const auto fused = make_fused();
  std::string address;
  {
    rpc::ShardServer server(fused, "127.0.0.1:0");
    address = server.address();
    server.stop();
  }
  rpc::RemoteShardConfig config = fast_client();
  config.request_timeout = 500ms;
  rpc::RemoteShard shard(address, config);
  auto future = shard.submit(rpc_dataset().record(0));
  EXPECT_THROW((void)future.get(), Error);
  EXPECT_GE(shard.consecutive_failures(), 1u);
  EXPECT_FALSE(shard.probe());
  shard.shutdown();
}

TEST(ShardRouterRpc, RemoteReplicasMatchFusedScores) {
  const auto fused = make_fused();
  rpc::ShardServer server_a(fused, "127.0.0.1:0");
  rpc::ShardServer server_b(fused, "127.0.0.1:0");

  RouterConfig config;
  config.shards = 0;
  config.remote_endpoints = {server_a.address(), server_b.address()};
  config.remote = fast_client();
  // A model-less router: routing needs no arithmetic of its own.
  ShardRouter router(nullptr, config);

  std::span<const data::Record> records = rpc_dataset().records();
  const std::vector<Prediction> routed = router.predict_batch(records);
  ASSERT_EQ(routed.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const tensor::Vector expected =
        testutil::canonical_scores(fused->scores(records[i]));
    ASSERT_EQ(routed[i].scores, expected) << "record " << i;
    ASSERT_EQ(routed[i].predicted, tensor::argmax(expected));
  }
  // Both shards actually served traffic, and the views say who is who.
  const std::vector<ShardInfo> infos = router.shard_infos();
  ASSERT_EQ(infos.size(), 2u);
  for (const ShardInfo& info : infos) {
    EXPECT_TRUE(info.remote);
    EXPECT_GT(info.routed, 0u);
    EXPECT_EQ(info.metrics.counter_value("engine.requests"), info.routed);
  }
  const obs::MetricsSnapshot total = router.aggregate_metrics();
  EXPECT_EQ(total.counter_value("engine.requests"), records.size());
  EXPECT_EQ(testutil::latency_count(total), records.size());
  // replica() is an in-process-only view.
  EXPECT_THROW((void)router.replica(0), Error);
  router.shutdown();
  server_a.stop();
  server_b.stop();
}

TEST(ShardRouterRpc, MixedLocalAndRemoteReplicas) {
  const auto fused = make_fused();
  rpc::ShardServer server(fused, "127.0.0.1:0");

  RouterConfig config;
  config.shards = 1;
  config.engine.max_batch = 16;
  config.remote_endpoints = {server.address()};
  config.remote = fast_client();
  ShardRouter router(fused, config);
  ASSERT_EQ(router.replica_count(), 2u);

  std::span<const data::Record> records = rpc_dataset().records();
  const std::vector<Prediction> routed =
      router.predict_batch(records.subspan(0, 300));
  for (std::size_t i = 0; i < routed.size(); ++i) {
    ASSERT_EQ(routed[i].scores, testutil::canonical_scores(fused->scores(records[i]))) << "record " << i;
  }
  const std::vector<ShardInfo> infos = router.shard_infos();
  EXPECT_FALSE(infos[0].remote);
  EXPECT_EQ(infos[0].backend, "local");
  EXPECT_TRUE(infos[1].remote);
  EXPECT_EQ(infos[1].backend, server.address());
  EXPECT_GT(infos[0].routed, 0u);
  EXPECT_GT(infos[1].routed, 0u);
  // The local replica still exposes its engine; uid affinity holds.
  EXPECT_GT(router.replica(0).cache_entries(), 0u);
  router.shutdown();
  server.stop();
}

TEST(ShardRouterRpc, AutoDrainOnShardDeathThenZeroFailedRequests) {
  const auto fused = make_fused();
  auto server_a = std::make_unique<rpc::ShardServer>(fused, "127.0.0.1:0");
  rpc::ShardServer server_b(fused, "127.0.0.1:0");

  RouterConfig config;
  config.shards = 0;
  config.remote_endpoints = {server_a->address(), server_b.address()};
  config.remote = fast_client();
  config.remote.request_timeout = 1000ms;
  config.health.probe_interval = 50ms;
  config.health.failure_threshold = 2;
  ShardRouter router(nullptr, config);

  std::span<const data::Record> records = rpc_dataset().records();
  (void)router.predict_batch(records.subspan(0, 200));
  ASSERT_EQ(router.active_count(), 2u);

  // Kill shard 0's process-equivalent. The health monitor must notice
  // and drain it without any operator involvement, within the 3 s
  // recovery ceiling (two failed probes 50 ms apart take far less).
  server_a->stop();
  server_a.reset();
  const auto killed = std::chrono::steady_clock::now();
  ASSERT_TRUE(eventually([&]() { return !router.active(0); }))
      << "health monitor never drained the dead shard";
  EXPECT_LE(std::chrono::steady_clock::now() - killed, 3000ms)
      << "kill to drain exceeded the recovery ceiling";
  EXPECT_TRUE(router.shard_infos()[0].auto_drained);
  EXPECT_EQ(router.active_count(), 1u);

  // Acceptance: after the drain completes, zero failed client requests —
  // everything reroutes to the surviving shard, still bit-identical.
  const std::vector<Prediction> after =
      router.predict_batch(records.subspan(0, 300));
  for (std::size_t i = 0; i < after.size(); ++i) {
    ASSERT_EQ(after[i].scores, testutil::canonical_scores(fused->scores(records[i]))) << "record " << i;
  }
  for (std::size_t i = 0; i < 300; ++i) {
    EXPECT_EQ(router.shard_for(records[i].uid), 1u);
  }
  router.shutdown();
  server_b.stop();
}

TEST(ShardRouterRpc, RecoveredShardIsAutoRestored) {
  const auto fused = make_fused();
  // Unix-domain sockets rebind deterministically, which makes the
  // "same address comes back" scenario reliable in a test.
  const std::string path_a =
      "unix:/tmp/muffin_rpc_recover_a_" + std::to_string(::getpid()) + ".sock";
  const std::string path_b =
      "unix:/tmp/muffin_rpc_recover_b_" + std::to_string(::getpid()) + ".sock";
  auto server_a = std::make_unique<rpc::ShardServer>(fused, path_a);
  rpc::ShardServer server_b(fused, path_b);

  RouterConfig config;
  config.shards = 0;
  config.remote_endpoints = {path_a, path_b};
  config.remote = fast_client();
  config.health.probe_interval = 50ms;
  config.health.failure_threshold = 2;
  ShardRouter router(nullptr, config);

  server_a->stop();
  server_a.reset();
  ASSERT_TRUE(eventually([&]() { return !router.active(0); }));

  // The shard comes back at the same address; a successful probe must
  // restore it and traffic must flow to it again, bit-identically.
  server_a = std::make_unique<rpc::ShardServer>(fused, path_a);
  ASSERT_TRUE(eventually([&]() { return router.active(0); }))
      << "health monitor never restored the recovered shard";
  EXPECT_FALSE(router.shard_infos()[0].auto_drained);

  std::span<const data::Record> records = rpc_dataset().records();
  const std::vector<Prediction> after =
      router.predict_batch(records.subspan(0, 200));
  for (std::size_t i = 0; i < after.size(); ++i) {
    ASSERT_EQ(after[i].scores, testutil::canonical_scores(fused->scores(records[i]))) << "record " << i;
  }
  EXPECT_GT(router.shard_infos()[0].routed, 0u);
  router.shutdown();
  server_a->stop();
  server_b.stop();
}

TEST(ShardRouterRpc, OperatorDrainIsNeverAutoRestored) {
  const auto fused = make_fused();
  rpc::ShardServer server_a(fused, "127.0.0.1:0");
  rpc::ShardServer server_b(fused, "127.0.0.1:0");

  RouterConfig config;
  config.shards = 0;
  config.remote_endpoints = {server_a.address(), server_b.address()};
  config.remote = fast_client();
  config.health.probe_interval = 30ms;
  ShardRouter router(nullptr, config);

  // Operator drains shard 0 while its server is perfectly healthy; the
  // monitor must keep its hands off it.
  router.drain(0);
  std::this_thread::sleep_for(300ms);  // several probe periods
  EXPECT_FALSE(router.active(0));
  EXPECT_FALSE(router.shard_infos()[0].auto_drained);
  router.restore(0);
  EXPECT_TRUE(router.active(0));
  router.shutdown();
  server_a.stop();
  server_b.stop();
}

TEST(RemoteShard, MalformedResponseFailsFuturesWithError) {
  // Regression: a response whose row count does not match the request
  // (or an undecodable payload) used to break the popped batch's
  // promises — futures saw std::future_error instead of the documented
  // muffin::Error. A fake server answers 2 rows to a 1-record request.
  common::ListenSocket listener(common::Endpoint::parse("127.0.0.1:0"));
  std::thread fake_server([&listener]() {
    common::Socket conn = listener.accept(/*timeout_ms=*/5000);
    if (!conn.valid()) return;
    const std::optional<rpc::Frame> request =
        rpc::read_frame(conn, rpc::kDefaultMaxFrameBytes, 5000);
    if (!request.has_value()) return;
    std::vector<Prediction> wrong(2);
    for (Prediction& p : wrong) p.scores = {0.5, 0.5};
    rpc::write_frame(conn,
                     rpc::encode_score_response(request->header.seq, wrong));
    // Hold the connection open so EOF is not what fails the batch.
    std::this_thread::sleep_for(500ms);
  });

  rpc::RemoteShardConfig config = fast_client();
  config.connections = 1;
  rpc::RemoteShard shard(listener.local().to_string(), config);
  auto future = shard.submit(rpc_dataset().record(0));
  // muffin::Error specifically — a broken promise would surface as
  // std::future_error and fail this expectation.
  EXPECT_THROW((void)future.get(), Error);
  EXPECT_GE(shard.consecutive_failures(), 1u);
  fake_server.join();
  shard.shutdown();
}

TEST(ShardServer, MalformedFramePoisonsOnlyThatConnection) {
  const auto fused = make_fused();
  rpc::ShardServer server(fused, "127.0.0.1:0");

  // A hostile/broken peer sends garbage. The server must drop it…
  {
    common::Socket raw = common::connect_endpoint(server.endpoint(), 1000);
    const char garbage[] = "definitely not a muffin frame at all........";
    raw.send_all(garbage, sizeof(garbage));
    // The server answers with a best-effort Error frame and/or EOF.
    std::uint8_t byte;
    try {
      (void)raw.recv_all(&byte, 1, 2000);
    } catch (const Error&) {
    }
  }
  // …and an oversized length field is rejected before any allocation.
  {
    common::Socket raw = common::connect_endpoint(server.endpoint(), 1000);
    std::vector<std::uint8_t> header;
    rpc::encode_header(header, rpc::MsgType::ScoreRequest, /*seq=*/1,
                       /*payload_len=*/std::uint64_t{1} << 62);
    raw.send_all(header.data(), header.size());
    std::uint8_t byte;
    try {
      (void)raw.recv_all(&byte, 1, 2000);
    } catch (const Error&) {
    }
  }

  // A well-behaved client on a fresh connection is unaffected.
  rpc::RemoteShard shard(server.address(), fast_client());
  const data::Record& record = rpc_dataset().record(0);
  EXPECT_EQ(shard.submit(record).get().scores,
            testutil::canonical_scores(fused->scores(record)));
  shard.shutdown();
  server.stop();
}

TEST(ShardServer, AFrameThatFailsToScoreFailsOnlyItself) {
  // A group id one past its attribute's range decodes fine (the codec
  // checks counts, not ranges) but makes the body models throw. That
  // frame alone is answered with an Error echoing its seq: the next frame
  // on the same connection, and every frame on a concurrent one, are
  // answered bit-identically.
  const auto fused = make_fused();
  rpc::ShardServer server(fused, "127.0.0.1:0");
  std::span<const data::Record> records = rpc_dataset().records();
  const auto expect_exact = [&](const std::optional<rpc::Frame>& reply,
                                std::uint64_t seq,
                                std::span<const data::Record> sent) {
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->header.type, rpc::MsgType::ScoreResponse);
    ASSERT_EQ(reply->header.seq, seq);
    const std::vector<Prediction> predictions =
        rpc::decode_score_response(reply->payload);
    ASSERT_EQ(predictions.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
      ASSERT_EQ(predictions[i].scores,
                testutil::canonical_scores(fused->scores(sent[i])))
          << "seq " << seq << " row " << i;
    }
  };

  // Connection B streams valid frames from records[0, 592) until A is
  // done (at least 20).
  std::atomic<bool> a_done{false};
  std::atomic<std::size_t> b_frames{0};
  std::thread b_client([&]() {
    common::Socket b = common::connect_endpoint(server.endpoint(), 1000);
    for (std::uint64_t seq = 1; seq <= 20 || (!a_done.load() && seq < 5000);
         ++seq) {
      const std::span<const data::Record> sent =
          records.subspan((seq * 16) % (records.size() - 16), 16);
      rpc::write_frame(b, rpc::encode_score_request(seq, sent), 5000);
      expect_exact(rpc::read_frame(b, rpc::kDefaultMaxFrameBytes, 5000), seq,
                   sent);
      b_frames.fetch_add(1);
    }
  });
  ASSERT_TRUE(eventually([&]() { return b_frames.load() > 0; }));

  // Connection A, in a lambda so a failed assertion still joins B.
  const auto connection_a = [&]() {
    // Records B never sends, so no memo hit can answer the hostile row.
    data::Record hostile = records[599];
    hostile.groups[0] = rpc_dataset().schema()[0].group_count();
    const std::vector<data::Record> bad = {records[597], hostile,
                                           records[598]};
    common::Socket a = common::connect_endpoint(server.endpoint(), 1000);
    rpc::write_frame(a, rpc::encode_score_request(/*seq=*/7, bad), 5000);
    const std::optional<rpc::Frame> error =
        rpc::read_frame(a, rpc::kDefaultMaxFrameBytes, 5000);
    ASSERT_TRUE(error.has_value());
    ASSERT_EQ(error->header.type, rpc::MsgType::Error);
    EXPECT_EQ(error->header.seq, 7u);
    EXPECT_NE(rpc::decode_error(error->payload).find("group id"),
              std::string::npos);

    const std::span<const data::Record> good = records.subspan(0, 16);
    rpc::write_frame(a, rpc::encode_score_request(/*seq=*/8, good), 5000);
    expect_exact(rpc::read_frame(a, rpc::kDefaultMaxFrameBytes, 5000), 8,
                 good);
  };
  connection_a();
  a_done.store(true);
  b_client.join();
  EXPECT_GE(b_frames.load(), 20u);
  server.stop();
}

TEST(ShardServer, FinishedConnectionsAreReaped) {
  // Regression: every probe opens a short-lived connection; without
  // reaping, each one leaked its fd and a joinable thread until stop() —
  // a long-lived shard probed every 250 ms would exhaust its fd limit in
  // minutes.
  const auto fused = make_fused();
  rpc::ShardServer server(fused, "127.0.0.1:0");
  rpc::RemoteShard shard(server.address(), fast_client());
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(shard.probe());
  }
  EXPECT_GE(server.connections_accepted(), 12u);
  // The accept loop reaps on its ~200 ms cadence; only the RemoteShard's
  // (unconnected-until-used) pool could legitimately remain.
  ASSERT_TRUE(eventually(
      [&]() { return server.open_connections() <= 2; }, /*deadline_ms=*/2000))
      << "closed probe connections were never reaped: "
      << server.open_connections() << " still held";
  shard.shutdown();
  server.stop();
}

TEST(ShardServer, StopFailsInFlightCleanly) {
  const auto fused = make_fused();
  auto server = std::make_unique<rpc::ShardServer>(fused, "127.0.0.1:0");
  rpc::RemoteShardConfig config = fast_client();
  config.request_timeout = 1000ms;
  rpc::RemoteShard shard(server->address(), config);

  // Race shutdown against a stream of submissions: every future must
  // resolve (value or Error) — no hangs, no abandoned promises.
  std::vector<std::future<Prediction>> futures;
  std::span<const data::Record> records = rpc_dataset().records();
  for (std::size_t i = 0; i < 64; ++i) {
    futures.push_back(shard.submit(records[i]));
  }
  server->stop();
  std::size_t delivered = 0;
  std::size_t failed = 0;
  for (std::future<Prediction>& future : futures) {
    try {
      (void)future.get();
      ++delivered;
    } catch (const Error&) {
      ++failed;
    }
  }
  EXPECT_EQ(delivered + failed, 64u);
  shard.shutdown();
  server.reset();
}

TEST(RemoteShard, FetchStatsReturnsServerAuthoritativeCounters) {
  const auto fused = make_fused();
  rpc::ShardServer server(fused, "127.0.0.1:0");
  rpc::RemoteShard shard(server.address(), fast_client());

  std::span<const data::Record> records = rpc_dataset().records();
  std::vector<std::future<Prediction>> futures;
  for (std::size_t i = 0; i < 150; ++i) {
    futures.push_back(shard.submit(records[i % 50]));
  }
  for (std::future<Prediction>& future : futures) (void)future.get();

  const StatsReport report = shard.fetch_stats();
  // The report is the SERVER engine's own accounting, not the client's
  // reconstruction — counter for counter.
  const obs::MetricsSnapshot server_metrics = server.engine().metrics();
  for (const char* name :
       {"engine.requests", "engine.batches", "engine.cache_hits",
        "engine.consensus_short_circuits", "engine.head_evaluations"}) {
    EXPECT_EQ(report.engine.counter_value(name),
              server_metrics.counter_value(name))
        << name;
  }
  EXPECT_EQ(report.engine.counter_value("engine.requests"), 150u);
  EXPECT_EQ(report.cache_entries, server.engine().cache_entries());
  EXPECT_GT(report.cache_entries, 0u);  // repeats populated the memo
  // Server-measured latency travels whole as a histogram.
  EXPECT_EQ(testutil::latency_count(report.engine), 150u);
  EXPECT_GT(report.engine.find_histogram("engine.latency_us")->percentile(100),
            0.0);
  // The process registry snapshot rides along; servers and tests share
  // this process's registry here, so only presence/consistency is
  // asserted.
  EXPECT_GE(report.process.counter_value("engine.requests"), 150u);
  EXPECT_NE(report.process.find_counter("rpc.server.frames_received"),
            nullptr);
  EXPECT_NE(report.process.find_histogram("engine.batch_size"), nullptr);

  // The ReplicaBackend surface maps a live fetch to a populated optional.
  const std::optional<StatsReport> authoritative = shard.authoritative_stats();
  ASSERT_TRUE(authoritative.has_value());
  EXPECT_EQ(authoritative->engine.counter_value("engine.requests"), 150u);
  shard.shutdown();
  server.stop();
}

TEST(RemoteShard, StatsResponseSizeIsIndependentOfTraffic) {
  // Registry snapshots, not per-request samples: the size depends on
  // which metrics exist, never on how much traffic was served.
  rpc::ShardServer server(make_fused(), "127.0.0.1:0");
  rpc::RemoteShardConfig config = fast_client();
  config.max_batch = 256;
  rpc::RemoteShard shard(server.address(), config);
  std::span<const data::Record> records = rpc_dataset().records();
  std::size_t served = 0;
  const auto encoded_size_after = [&](std::size_t total) {
    std::vector<std::future<Prediction>> futures;
    for (; served < total; ++served) {
      futures.push_back(shard.submit(records[served % records.size()]));
    }
    for (std::future<Prediction>& future : futures) (void)future.get();
    const StatsReport report = shard.fetch_stats();
    EXPECT_EQ(report.engine.counter_value("engine.requests"), total);
    return rpc::encode_stats_response(/*seq=*/0, report).size();
  };
  const std::size_t after_1k = encoded_size_after(1'000);
  EXPECT_EQ(encoded_size_after(70'000), after_1k);
  shard.shutdown();
  server.stop();
}

TEST(RemoteShard, StatsFailureIsNulloptAndNeverCountsTowardDrain) {
  const auto fused = make_fused();
  std::string address;
  {
    rpc::ShardServer server(fused, "127.0.0.1:0");
    address = server.address();
    server.stop();
  }
  rpc::RemoteShardConfig config = fast_client();
  config.connect_timeout = 200ms;
  rpc::RemoteShard shard(address, config);
  EXPECT_THROW((void)shard.fetch_stats(), Error);
  EXPECT_FALSE(shard.authoritative_stats().has_value());
  // Stats polling must never push a shard toward auto-drain.
  EXPECT_EQ(shard.consecutive_failures(), 0u);
  shard.shutdown();
}

TEST(ShardRouterRpc, AuthoritativeStatsFoldsServerSideAccounting) {
  const auto fused = make_fused();
  rpc::ShardServer server_a(fused, "127.0.0.1:0");
  rpc::ShardServer server_b(fused, "127.0.0.1:0");
  RouterConfig config;
  config.shards = 0;
  config.remote_endpoints = {server_a.address(), server_b.address()};
  config.remote = fast_client();
  config.health.probe_interval = std::chrono::milliseconds(0);
  ShardRouter router(nullptr, config);

  std::span<const data::Record> records = rpc_dataset().records();
  std::vector<std::future<Prediction>> futures;
  for (std::size_t i = 0; i < 120; ++i) {
    futures.push_back(router.submit(records[i]));
  }
  for (std::future<Prediction>& future : futures) (void)future.get();

  const StatsReport fleet = router.authoritative_stats();
  // Server-side totals across both shards account for exactly the routed
  // traffic, and the latency histogram is the merge of what the two
  // SERVERS measured (client-observed stats would also count 120, but
  // these travel over the Stats RPC; the per-server sum below pins that).
  EXPECT_EQ(fleet.engine.counter_value("engine.requests"), 120u);
  EXPECT_EQ(testutil::latency_count(fleet.engine), 120u);
  EXPECT_EQ(fleet.engine.counter_value("engine.requests"),
            server_a.engine().metrics().counter_value("engine.requests") +
                server_b.engine().metrics().counter_value("engine.requests"));
  EXPECT_EQ(fleet.cache_entries, server_a.engine().cache_entries() +
                                     server_b.engine().cache_entries());
  EXPECT_GT(fleet.engine.counter_value("engine.batches"), 0u);
  router.shutdown();
  server_a.stop();
  server_b.stop();
}

// Second generation of the same muffin (same body pool instances, same
// gating, different head weights): what a rolled-out artifact installs.
std::shared_ptr<core::FusedModel> make_fused_v2() {
  static const std::shared_ptr<core::FusedModel> shared =
      testutil::build_fused(rpc_pool(), rpc_dataset(), /*epochs=*/2);
  return shared;
}

TEST(RemoteShard, ReloadInstallsTheArtifactOverTheWire) {
  const auto fused = make_fused();
  rpc::ShardServer server(fused, "127.0.0.1:0");
  rpc::RemoteShard shard(server.address(), fast_client());
  const std::string path =
      testutil::write_head_artifact(*make_fused_v2(), "rpc_reload", 9);

  // Traffic before the roll serves version 1.
  std::span<const data::Record> records = rpc_dataset().records();
  EXPECT_EQ(shard.submit(records[0]).get().model_version, 1u);

  // The reload op resolves the path on the SERVER and answers with the
  // installed version — the stamp, here.
  EXPECT_EQ(shard.reload(path), 9u);
  EXPECT_EQ(server.engine().model_version(), 9u);

  // Post-roll traffic is bit-identical to the new fused generation
  // (same body pool, the artifact's head) and says so per row.
  for (std::size_t i = 0; i < 100; ++i) {
    const Prediction reply = shard.submit(records[i]).get();
    ASSERT_EQ(reply.scores,
              testutil::canonical_scores(make_fused_v2()->scores(records[i])))
        << "record " << i;
    EXPECT_EQ(reply.model_version, 9u);
  }
  EXPECT_EQ(shard.consecutive_failures(), 0u);
  std::remove(path.c_str());
  shard.shutdown();
  server.stop();
}

TEST(RemoteShard, ReloadFailureIsAnErrorFrameAndNeverCountsTowardDrain) {
  const auto fused = make_fused();
  rpc::ShardServer server(fused, "127.0.0.1:0");
  rpc::RemoteShard shard(server.address(), fast_client());

  // A missing artifact fails the reload — as a typed Error reply, not a
  // poisoned connection: serving continues on the old version.
  EXPECT_THROW((void)shard.reload("/nonexistent/head.mufa"), Error);
  EXPECT_EQ(server.engine().model_version(), 1u);
  // Control-plane failures never push a shard toward auto-drain.
  EXPECT_EQ(shard.consecutive_failures(), 0u);
  const data::Record& record = rpc_dataset().record(0);
  EXPECT_EQ(shard.submit(record).get().scores,
            testutil::canonical_scores(fused->scores(record)));

  // A non-advancing stamp (rollback) is rejected the same way.
  const std::string path =
      testutil::write_head_artifact(*make_fused_v2(), "rpc_rollback", 9);
  EXPECT_EQ(shard.reload(path), 9u);
  EXPECT_THROW((void)shard.reload(path), Error);  // same stamp again
  EXPECT_EQ(server.engine().model_version(), 9u);
  EXPECT_EQ(shard.consecutive_failures(), 0u);
  std::remove(path.c_str());
  shard.shutdown();
  server.stop();
}

TEST(ShardRouterRpc, ReloadAllRollsTheFleetUnderTrafficWithZeroFailures) {
  // The fleet-roll acceptance drill, in-process: two remote shards serve
  // sustained traffic while reload_all rolls six versions across them
  // shard by shard, alternating two head generations, so a stale memo
  // entry (old scores under a new version) shows up as a mismatch. Zero
  // caller-visible errors; every reply is bit-identical to the
  // generation its row-level version names; and no roll pauses traffic
  // (the latency gate below).
  const std::vector<std::shared_ptr<core::FusedModel>> generations = {
      make_fused(), make_fused_v2()};
  rpc::ShardServer server_a(generations[0], "127.0.0.1:0");
  rpc::ShardServer server_b(generations[0], "127.0.0.1:0");

  RouterConfig config;
  config.shards = 0;
  config.remote_endpoints = {server_a.address(), server_b.address()};
  config.remote = fast_client();
  ShardRouter router(nullptr, config);

  // Unstamped artifacts: every install auto-assigns each server's next
  // version, so the same file can roll the fleet any number of times.
  // Version 1 is generations[0] (construction); roll k installs
  // generations[(k + 1) % 2] as version k + 2.
  const std::vector<std::string> paths = {
      testutil::write_head_artifact(*generations[0], "rpc_roll_all_v1", 0),
      testutil::write_head_artifact(*generations[1], "rpc_roll_all_v2", 0)};
  const auto generation_for = [&](std::uint64_t version) {
    return generations[(version - 1) % generations.size()];
  };

  // Roll k is preceded by quiet window 2k (90 ms of traffic) and recorded
  // in window 2k + 1 (the reload itself, then 90 ms of traffic), so quiet
  // and roll windows sample the host at the same times. The last window
  // is the warm-up, never gated.
  constexpr std::size_t kRolls = 6;
  constexpr std::size_t kWarmUp = 2 * kRolls;
  std::span<const data::Record> records = rpc_dataset().records();
  constexpr std::size_t kClients = 3;
  std::atomic<std::size_t> window{kWarmUp};
  std::atomic<bool> done{false};
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> mismatches{0};
  // latency_us[client][window]
  std::vector<std::vector<std::vector<double>>> latency_us(
      kClients, std::vector<std::vector<double>>(kWarmUp + 1));
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t]() {
      for (std::size_t i = 0; !done.load(); ++i) {
        const data::Record& record =
            records[(t * 41 + i * 7) % records.size()];
        const std::size_t current = window.load();
        const auto begin = std::chrono::steady_clock::now();
        try {
          const Prediction reply = router.predict(record);
          latency_us[t][current].push_back(
              std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - begin)
                  .count());
          if (reply.scores != testutil::canonical_scores(
                                  generation_for(reply.model_version)
                                      ->scores(record))) {
            mismatches.fetch_add(1);
          }
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      }
    });
  }

  // Let traffic warm up, then roll the whole fleet six times mid-stream.
  std::this_thread::sleep_for(150ms);
  std::vector<std::vector<std::uint64_t>> versions;
  try {
    for (std::size_t k = 0; k < kRolls; ++k) {
      window.store(2 * k);
      std::this_thread::sleep_for(90ms);
      window.store(2 * k + 1);
      versions.push_back(router.reload_all(paths[(k + 1) % paths.size()]));
      std::this_thread::sleep_for(90ms);
    }
  } catch (const std::exception& e) {
    ADD_FAILURE() << "reload_all threw: " << e.what();
  }
  done.store(true);
  for (std::thread& client : clients) client.join();

  ASSERT_EQ(versions.size(), kRolls);
  for (std::size_t k = 0; k < kRolls; ++k) {
    EXPECT_EQ(versions[k], (std::vector<std::uint64_t>{k + 2, k + 2}))
        << "roll " << k;
  }
  EXPECT_EQ(server_a.engine().model_version(), kRolls + 1);
  EXPECT_EQ(server_b.engine().model_version(), kRolls + 1);
  // The acceptance gate: a fleet roll is invisible to callers.
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);

  std::vector<std::vector<double>> windows(kWarmUp + 1);
  for (std::size_t w = 0; w < windows.size(); ++w) {
    for (std::size_t t = 0; t < kClients; ++t) {
      windows[w].insert(windows[w].end(), latency_us[t][w].begin(),
                        latency_us[t][w].end());
    }
    ASSERT_FALSE(windows[w].empty()) << "window " << w;
  }
#if !MUFFIN_UNDER_TSAN
  // A swap never pauses traffic. A swap that held the memo lock for 20 ms
  // shows in every roll's p99.9, while one roll can stall for an
  // unrelated hypervisor hiccup; so the median over the rolls of the
  // per-roll p99.9 must stay within the worst quiet window's p99.9 plus
  // one slow frame round trip (the quiet p99): a request that meets a swap
  // may wait for a frame scored at miss cost, since the new version starts
  // with an empty memo, but not for a stall. Each window holds thousands
  // of requests, so its p99.9 rests on several of them: one host stall
  // (at most one request per client) does not set it. Wall-clock bounds
  // mean nothing under TSan's ~10x slowdown, so only the regular builds
  // enforce it.
  std::vector<double> quiet;
  double quiet_tail = 0.0;
  for (std::size_t k = 0; k < kRolls; ++k) {
    quiet.insert(quiet.end(), windows[2 * k].begin(), windows[2 * k].end());
    quiet_tail = std::max(quiet_tail, percentile(windows[2 * k], 99.9));
  }
  const double slow_round_trip = percentile(quiet, 99);
  std::vector<double> roll_tails;
  std::string rolls;
  for (std::size_t k = 0; k < kRolls; ++k) {
    roll_tails.push_back(percentile(windows[2 * k + 1], 99.9));
    rolls += " " + std::to_string(roll_tails.back());
  }
  EXPECT_LE(percentile(roll_tails, 50), quiet_tail + slow_round_trip)
      << "worst quiet p99.9 " << quiet_tail << " us, quiet p99 "
      << slow_round_trip << " us, per-roll p99.9 (us):" << rolls;
#endif

  // Post-roll, both shards serve the last generation rolled.
  const std::shared_ptr<core::FusedModel> last = generation_for(kRolls + 1);
  const std::vector<Prediction> after =
      router.predict_batch(records.subspan(0, 100));
  for (std::size_t i = 0; i < after.size(); ++i) {
    ASSERT_EQ(after[i].scores,
              testutil::canonical_scores(last->scores(records[i])))
        << "record " << i;
    EXPECT_EQ(after[i].model_version, kRolls + 1);
  }
  for (const std::string& path : paths) std::remove(path.c_str());
  router.shutdown();
  server_a.stop();
  server_b.stop();
}

TEST(ShardRouterRpc, ReloadShardTargetsOneLocalOrRemoteReplica) {
  const auto fused = make_fused();
  rpc::ShardServer server(fused, "127.0.0.1:0");

  RouterConfig config;
  config.shards = 1;
  config.engine.max_batch = 16;
  config.remote_endpoints = {server.address()};
  config.remote = fast_client();
  ShardRouter router(fused, config);
  ASSERT_EQ(router.replica_count(), 2u);

  const std::string path =
      testutil::write_head_artifact(*make_fused_v2(), "rpc_roll_one", 5);
  // Shard 0 is the in-process replica: LocalReplica::reload reads the
  // path here. Shard 1 resolves it on its server — same file, same host.
  EXPECT_EQ(router.reload_shard(0, path), 5u);
  EXPECT_EQ(router.replica(0).model_version(), 5u);
  EXPECT_EQ(server.engine().model_version(), 1u);  // untouched so far
  EXPECT_EQ(router.reload_shard(1, path), 5u);
  EXPECT_EQ(server.engine().model_version(), 5u);
  EXPECT_THROW((void)router.reload_shard(2, path), Error);  // no such shard

  std::remove(path.c_str());
  router.shutdown();
  server.stop();
}

TEST(RemoteShard, TracedRequestsEmitClientAndServerSpans) {
  // Servers live in this process, so one tracer captures both sides of
  // the hop; CI's rpc-serve job covers the genuine two-process capture.
  // The server scores each frame on the spot, so its side emits no
  // queue spans; a few submits to an in-process engine in the same
  // window keep the queued path's serve.queue/serve.request/serve.reply
  // spans asserted too.
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.configure(true, /*sample_every=*/1);
  const auto fused = make_fused();
  {
    rpc::ShardServer server(fused, "127.0.0.1:0");
    rpc::RemoteShard shard(server.address(), fast_client());
    InferenceEngine engine(fused);
    std::span<const data::Record> records = rpc_dataset().records();
    std::vector<std::future<Prediction>> futures;
    for (std::size_t i = 0; i < 40; ++i) {
      futures.push_back(shard.submit(records[i]));
    }
    for (std::size_t i = 0; i < 4; ++i) {
      futures.push_back(engine.submit(records[i]));
    }
    for (std::future<Prediction>& future : futures) (void)future.get();
    engine.shutdown();
    shard.shutdown();
    server.stop();
  }
  std::set<std::string> names;
  for (const obs::TraceEvent& event : tracer.events()) {
    names.insert(event.name);
  }
  tracer.configure(false);
  for (const char* expected :
       {"rpc.client.encode", "rpc.client.write", "rpc.client.decode",
        "rpc.client.roundtrip", "rpc.server.decode", "rpc.server.encode",
        "rpc.server.write", "serve.batch", "serve.score_batch", "serve.fuse",
        "serve.reply", "serve.request", "serve.queue"}) {
    EXPECT_TRUE(names.count(expected)) << "missing span " << expected;
  }
}

}  // namespace
}  // namespace muffin::serve
