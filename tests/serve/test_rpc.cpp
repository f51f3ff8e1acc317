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

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "common/error.h"
#include "data/serialize.h"
#include "obs/trace.h"
#include "serve/router.h"
#include "serve/rpc/server.h"
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

rpc::ShardServerConfig small_server() {
  rpc::ShardServerConfig config;
  config.engine.max_batch = 16;
  config.engine.max_delay = std::chrono::microseconds(200);
  return config;
}

rpc::RemoteShardConfig fast_client() {
  rpc::RemoteShardConfig config;
  config.connections = 2;
  config.max_batch = 16;
  config.max_delay = std::chrono::microseconds(200);
  config.connect_timeout = 500ms;
  config.request_timeout = 5000ms;
  config.probe_timeout = 500ms;
  return config;
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

TEST(RemoteShard, BitIdenticalOverTcp) {
  const auto fused = make_fused();
  rpc::ShardServer server(fused, "127.0.0.1:0", small_server());
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
  rpc::ShardServer server(fused, path, small_server());
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
  rpc::ShardServer server(fused, "127.0.0.1:0", small_server());
  rpc::RemoteShard shard(server.address(), fast_client());

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
  // Micro-batching must actually batch: far fewer frames than requests.
  EXPECT_LT(observed.counter_value("engine.batches"), kClients * kPerClient);
  shard.shutdown();
  server.stop();
}

TEST(RemoteShard, RepeatsAreServedFromTheServerMemo) {
  const auto fused = make_fused();
  rpc::ShardServer server(fused, "127.0.0.1:0", small_server());
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
  auto server = std::make_unique<rpc::ShardServer>(fused, "127.0.0.1:0",
                                                   small_server());
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
    rpc::ShardServer server(fused, "127.0.0.1:0", small_server());
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
  rpc::ShardServer server_a(fused, "127.0.0.1:0", small_server());
  rpc::ShardServer server_b(fused, "127.0.0.1:0", small_server());

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
  rpc::ShardServer server(fused, "127.0.0.1:0", small_server());

  RouterConfig config;
  config.shards = 1;
  config.engine.max_batch = 16;
  config.engine.max_delay = std::chrono::microseconds(200);
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
  auto server_a = std::make_unique<rpc::ShardServer>(fused, "127.0.0.1:0",
                                                     small_server());
  rpc::ShardServer server_b(fused, "127.0.0.1:0", small_server());

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
  // and drain it without any operator involvement.
  server_a->stop();
  server_a.reset();
  ASSERT_TRUE(eventually([&]() { return !router.active(0); }))
      << "health monitor never drained the dead shard";
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
  auto server_a =
      std::make_unique<rpc::ShardServer>(fused, path_a, small_server());
  rpc::ShardServer server_b(fused, path_b, small_server());

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
  server_a = std::make_unique<rpc::ShardServer>(fused, path_a, small_server());
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
  rpc::ShardServer server_a(fused, "127.0.0.1:0", small_server());
  rpc::ShardServer server_b(fused, "127.0.0.1:0", small_server());

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
  rpc::ShardServer server(fused, "127.0.0.1:0", small_server());

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

TEST(ShardServer, FinishedConnectionsAreReaped) {
  // Regression: every probe opens a short-lived connection; without
  // reaping, each one leaked its fd and two joinable threads until
  // stop() — a long-lived shard probed every 250 ms would exhaust its
  // fd limit in minutes.
  const auto fused = make_fused();
  rpc::ShardServer server(fused, "127.0.0.1:0", small_server());
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
  auto server = std::make_unique<rpc::ShardServer>(fused, "127.0.0.1:0",
                                                   small_server());
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
  rpc::ShardServer server(fused, "127.0.0.1:0", small_server());
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
  rpc::ShardServer server(make_fused(), "127.0.0.1:0", small_server());
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
    rpc::ShardServer server(fused, "127.0.0.1:0", small_server());
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
  rpc::ShardServer server_a(fused, "127.0.0.1:0", small_server());
  rpc::ShardServer server_b(fused, "127.0.0.1:0", small_server());
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

/// Write make_fused_v2()'s head as a reload artifact, stamped or not.
std::string write_v2_head_artifact(const char* stem,
                                   std::uint64_t model_version) {
  const std::string path = testing::TempDir() + "/" + stem + ".mufa";
  data::ArtifactWriter writer;
  make_fused_v2()->head().save_artifact(writer, "head");
  writer.set_model_version(model_version);
  writer.write_file(path);
  return path;
}

TEST(RemoteShard, ReloadInstallsTheArtifactOverTheWire) {
  const auto fused = make_fused();
  rpc::ShardServer server(fused, "127.0.0.1:0", small_server());
  rpc::RemoteShard shard(server.address(), fast_client());
  const std::string path = write_v2_head_artifact("rpc_reload", 9);

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
  rpc::ShardServer server(fused, "127.0.0.1:0", small_server());
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
  const std::string path = write_v2_head_artifact("rpc_rollback", 9);
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
  // sustained traffic while reload_all rolls an unstamped artifact
  // across them shard by shard. Zero caller-visible errors; every reply
  // is bit-identical to the generation its row-level version names.
  const auto fused = make_fused();
  rpc::ShardServer server_a(fused, "127.0.0.1:0", small_server());
  rpc::ShardServer server_b(fused, "127.0.0.1:0", small_server());

  RouterConfig config;
  config.shards = 0;
  config.remote_endpoints = {server_a.address(), server_b.address()};
  config.remote = fast_client();
  ShardRouter router(nullptr, config);

  // Unstamped artifact: each server auto-assigns its next version (2).
  const std::string path = write_v2_head_artifact("rpc_roll_all", 0);

  std::span<const data::Record> records = rpc_dataset().records();
  std::atomic<bool> rolling{true};
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < 3; ++t) {
    clients.emplace_back([&, t]() {
      for (std::size_t i = 0; rolling.load() || i < 50; ++i) {
        const std::size_t r = (t * 41 + i * 7) % records.size();
        try {
          const Prediction reply = router.predict(records[r]);
          const auto& generation =
              reply.model_version >= 2 ? make_fused_v2() : fused;
          if (reply.scores !=
              testutil::canonical_scores(generation->scores(records[r]))) {
            mismatches.fetch_add(1);
          }
        } catch (const Error&) {
          failures.fetch_add(1);
        }
        if (i >= 5000) break;  // bound the loop if the roll stalls
      }
    });
  }

  // Let traffic flow, then roll the whole fleet mid-stream.
  std::this_thread::sleep_for(50ms);
  const std::vector<std::uint64_t> versions = router.reload_all(path);
  rolling.store(false);
  for (std::thread& client : clients) client.join();

  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0], 2u);
  EXPECT_EQ(versions[1], 2u);
  EXPECT_EQ(server_a.engine().model_version(), 2u);
  EXPECT_EQ(server_b.engine().model_version(), 2u);
  // The acceptance gate: a fleet roll is invisible to callers.
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);

  // Post-roll, both shards serve the new generation.
  const std::vector<Prediction> after =
      router.predict_batch(records.subspan(0, 100));
  for (std::size_t i = 0; i < after.size(); ++i) {
    ASSERT_EQ(after[i].scores, testutil::canonical_scores(
                                   make_fused_v2()->scores(records[i])))
        << "record " << i;
    EXPECT_EQ(after[i].model_version, 2u);
  }
  std::remove(path.c_str());
  router.shutdown();
  server_a.stop();
  server_b.stop();
}

TEST(ShardRouterRpc, ReloadShardTargetsOneLocalOrRemoteReplica) {
  const auto fused = make_fused();
  rpc::ShardServer server(fused, "127.0.0.1:0", small_server());

  RouterConfig config;
  config.shards = 1;
  config.engine.max_batch = 16;
  config.remote_endpoints = {server.address()};
  config.remote = fast_client();
  ShardRouter router(fused, config);
  ASSERT_EQ(router.replica_count(), 2u);

  const std::string path = write_v2_head_artifact("rpc_roll_one", 5);
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
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.configure(true, /*sample_every=*/1);
  const auto fused = make_fused();
  {
    rpc::ShardServer server(fused, "127.0.0.1:0", small_server());
    rpc::RemoteShard shard(server.address(), fast_client());
    std::span<const data::Record> records = rpc_dataset().records();
    std::vector<std::future<Prediction>> futures;
    for (std::size_t i = 0; i < 40; ++i) {
      futures.push_back(shard.submit(records[i]));
    }
    for (std::future<Prediction>& future : futures) (void)future.get();
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
