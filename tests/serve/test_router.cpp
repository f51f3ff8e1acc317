// Correctness suite for the sharded serving tier (serve::ShardRouter).
//
// The contract under test, in order of importance:
//  1. Routed predictions are bit-identical to FusedModel::scores for any
//     shard count — sharding adds placement, never arithmetic.
//  2. Uid affinity: a uid always routes to the same shard, and only that
//     shard's memo ever holds it.
//  3. Resharding moves few keys: growing N -> N+1 replicas relocates at
//     most ~2·K/N of K warmed uids; everyone else keeps a warm memo.
//  4. Drain/restore/remove re-route correctly and preserve (or retire)
//     shard-local state as documented.
#include "serve/router.h"

#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "common/error.h"
#include "router_test_access.h"
#include "serve_test_util.h"
#include "tensor/ops.h"

namespace muffin::serve {

namespace {

const data::Dataset& router_dataset() {
  static const data::Dataset ds = data::synthetic_isic2019(1000, 41);
  return ds;
}

const models::ModelPool& router_pool() {
  static const models::ModelPool pool =
      models::calibrated_isic_pool(router_dataset());
  return pool;
}

// One shared immutable FusedModel for the whole suite: training is
// deterministic, FusedModel is thread-safe for scores(), and sharing one
// model across routers is exactly the production pattern — so there is
// nothing to gain from retraining per test (it would dominate runtime
// under TSan).
std::shared_ptr<core::FusedModel> make_fused() {
  static const std::shared_ptr<core::FusedModel> shared =
      testutil::build_fused(router_pool(), router_dataset(), /*epochs=*/6);
  return shared;
}

RouterConfig small_router(std::size_t shards) {
  RouterConfig config;
  config.shards = shards;
  config.engine.max_batch = 16;
  config.engine.max_delay = std::chrono::microseconds(200);
  return config;
}

TEST(ShardRouter, RejectsBadConstruction) {
  EXPECT_THROW(ShardRouter(nullptr), Error);
  RouterConfig no_shards;
  no_shards.shards = 0;
  EXPECT_THROW(ShardRouter(make_fused(), no_shards), Error);
  RouterConfig no_vnodes;
  no_vnodes.virtual_nodes = 0;
  EXPECT_THROW(ShardRouter(make_fused(), no_vnodes), Error);
}

TEST(ShardRouter, BitIdenticalToFusedScoresAcrossShardCounts) {
  const auto fused = make_fused();
  std::span<const data::Record> records = router_dataset().records();
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    ShardRouter router(fused, small_router(shards));
    const std::vector<Prediction> routed = router.predict_batch(records);
    ASSERT_EQ(routed.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      const tensor::Vector expected =
        testutil::canonical_scores(fused->scores(records[i]));
      ASSERT_EQ(routed[i].scores, expected)
          << "shards=" << shards << " record " << i;
      ASSERT_EQ(routed[i].predicted, tensor::argmax(expected))
          << "shards=" << shards << " record " << i;
    }
  }
}

TEST(ShardRouter, UidAffinityIsStableAndExclusive) {
  const auto fused = make_fused();
  ShardRouter router(fused, small_router(4));
  std::span<const data::Record> records = router_dataset().records();
  const std::size_t k = 256;

  // The routing decision is a pure function of the uid.
  std::unordered_map<std::uint64_t, std::size_t> owner;
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint64_t uid = records[i].uid;
    owner[uid] = router.shard_for(uid);
    EXPECT_EQ(router.shard_for(uid), owner[uid]);
  }

  // After serving, each uid is memoized on its owner shard and nowhere
  // else — the aggregate memo holds every uid exactly once.
  (void)router.predict_batch(records.subspan(0, k));
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint64_t uid = records[i].uid;
    for (std::size_t s = 0; s < router.replica_count(); ++s) {
      EXPECT_EQ(router.replica(s).cache_contains(uid), s == owner[uid])
          << "uid " << uid << " shard " << s;
    }
  }
  std::size_t total_entries = 0;
  for (const ShardInfo& info : router.shard_infos()) {
    total_entries += info.cache_entries;
  }
  EXPECT_EQ(total_entries, k);
}

TEST(ShardRouter, RepeatsAreServedFromOwnerShardMemo) {
  const auto fused = make_fused();
  ShardRouter router(fused, small_router(4));
  std::span<const data::Record> records = router_dataset().records();
  const auto first = router.predict_batch(records.subspan(0, 200));
  const auto second = router.predict_batch(records.subspan(0, 200));
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(second[i].scores, first[i].scores);
    EXPECT_TRUE(second[i].cached) << "record " << i;
  }
  EXPECT_EQ(router.aggregate_metrics().counter_value("engine.cache_hits"),
            second.size());
}

TEST(ShardRouter, ReshardMovesAtMostTwiceKOverN) {
  const auto fused = make_fused();
  const std::size_t n = 4;
  ShardRouter router(fused, small_router(n));
  std::span<const data::Record> records = router_dataset().records();
  const std::size_t k = records.size();  // 1000 warmed uids

  (void)router.predict_batch(records);  // warm every shard memo
  std::unordered_map<std::uint64_t, std::size_t> before;
  for (const data::Record& record : records) {
    before[record.uid] = router.shard_for(record.uid);
  }

  const std::size_t added = router.add_replica();
  std::size_t moved = 0;
  for (const data::Record& record : records) {
    const std::size_t now = router.shard_for(record.uid);
    if (now != before[record.uid]) {
      ++moved;
      // Consistent hashing only ever moves keys TO the new node.
      EXPECT_EQ(now, added) << "uid " << record.uid;
    }
  }
  // Expected movement is K/(N+1) = 200; the acceptance bound is 2·K/N.
  EXPECT_GT(moved, 0u);
  EXPECT_LE(moved, 2 * k / n);

  // Memo affinity is preserved for every unmoved uid: a second pass is a
  // cache hit wherever the owner did not change.
  const auto repeat = router.predict_batch(records);
  std::size_t cold = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const tensor::Vector expected =
        testutil::canonical_scores(fused->scores(records[i]));
    ASSERT_EQ(repeat[i].scores, expected) << "record " << i;
    if (router.shard_for(records[i].uid) == before[records[i].uid]) {
      EXPECT_TRUE(repeat[i].cached) << "unmoved uid went cold, record " << i;
    } else if (!repeat[i].cached) {
      ++cold;
    }
  }
  EXPECT_LE(cold, moved);
}

TEST(ShardRouter, AddedReplicaReceivesTraffic) {
  const auto fused = make_fused();
  ShardRouter router(fused, small_router(2));
  const std::size_t added = router.add_replica();
  EXPECT_EQ(router.replica_count(), 3u);
  EXPECT_EQ(router.active_count(), 3u);
  (void)router.predict_batch(router_dataset().records());
  EXPECT_GT(router.shard_infos()[added].routed, 0u);
}

TEST(ShardRouter, DrainReroutesAroundReplicaAndKeepsItsMemoWarm) {
  const auto fused = make_fused();
  ShardRouter router(fused, small_router(3));
  std::span<const data::Record> records = router_dataset().records();
  (void)router.predict_batch(records.subspan(0, 300));

  const std::size_t victim = router.shard_for(records[0].uid);
  const std::size_t victim_entries = router.replica(victim).cache_entries();
  router.drain(victim);
  EXPECT_FALSE(router.active(victim));
  EXPECT_EQ(router.active_count(), 2u);

  // Traffic re-routes: nothing maps to the drained shard, and service
  // stays correct (the rerouted shard scores the uid cold).
  for (std::size_t i = 0; i < 300; ++i) {
    EXPECT_NE(router.shard_for(records[i].uid), victim);
  }
  const Prediction rerouted = router.predict(records[0]);
  EXPECT_EQ(rerouted.scores,
            testutil::canonical_scores(fused->scores(records[0])));

  // Degraded mode keeps the drained engine alive with its memo intact.
  EXPECT_EQ(router.replica(victim).cache_entries(), victim_entries);
  EXPECT_TRUE(router.replica(victim).cache_contains(records[0].uid));
}

TEST(ShardRouter, RestoreResumesWithWarmMemo) {
  const auto fused = make_fused();
  ShardRouter router(fused, small_router(3));
  std::span<const data::Record> records = router_dataset().records();
  (void)router.predict_batch(records.subspan(0, 300));

  const std::uint64_t uid = records[0].uid;
  const std::size_t owner = router.shard_for(uid);
  router.drain(owner);
  router.restore(owner);
  EXPECT_TRUE(router.active(owner));

  // Routing is restored exactly (the ring points are deterministic), and
  // the shard answers from the memo it kept while drained.
  EXPECT_EQ(router.shard_for(uid), owner);
  const Prediction prediction = router.predict(records[0]);
  EXPECT_TRUE(prediction.cached);
  EXPECT_EQ(prediction.scores,
            testutil::canonical_scores(fused->scores(records[0])));
}

TEST(ShardRouter, TopologyGuards) {
  const auto fused = make_fused();
  ShardRouter router(fused, small_router(2));
  router.drain(0);
  EXPECT_THROW(router.drain(1), Error);    // last active replica
  EXPECT_THROW(router.drain(0), Error);    // already drained
  EXPECT_THROW(router.restore(1), Error);  // not drained
  EXPECT_THROW(router.drain(7), Error);    // out of range
  EXPECT_THROW((void)router.replica(7), Error);
  router.restore(0);
  EXPECT_THROW(router.restore(0), Error);  // restored twice
}

TEST(ShardRouter, RemoveReplicaPermanentlyReroutes) {
  const auto fused = make_fused();
  ShardRouter router(fused, small_router(3));
  std::span<const data::Record> records = router_dataset().records();
  (void)router.predict_batch(records.subspan(0, 200));

  const std::size_t removed = router.shard_for(records[0].uid);
  const std::size_t served_before =
      router.shard_infos()[removed].metrics.counter_value("engine.requests");
  router.remove_replica(removed);
  EXPECT_FALSE(router.active(removed));
  EXPECT_FALSE(router.shard_infos()[removed].alive);
  EXPECT_THROW(router.remove_replica(removed), Error);
  EXPECT_THROW(router.restore(removed), Error);

  // Keys remap away permanently; service stays bit-identical.
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_NE(router.shard_for(records[i].uid), removed);
  }
  const auto repeat = router.predict_batch(records.subspan(0, 200));
  for (std::size_t i = 0; i < repeat.size(); ++i) {
    ASSERT_EQ(repeat[i].scores, testutil::canonical_scores(fused->scores(records[i])));
  }
  // The removed shard's accounting survives for post-mortem inspection.
  EXPECT_EQ(router.shard_infos()[removed].metrics.counter_value("engine.requests"), served_before);
}

TEST(ShardRouter, AggregateViewsCoverEveryShard) {
  const auto fused = make_fused();
  ShardRouter router(fused, small_router(4));
  std::span<const data::Record> records = router_dataset().records();
  const std::size_t k = 400;
  (void)router.predict_batch(records.subspan(0, k));

  const obs::MetricsSnapshot total = router.aggregate_metrics();
  EXPECT_EQ(total.counter_value("engine.requests"), k);
  EXPECT_EQ(total.counter_value("engine.consensus_short_circuits") +
                total.counter_value("engine.head_evaluations"),
            k);

  const obs::HistogramSnapshot* merged =
      total.find_histogram("engine.latency_us");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->count, k);
  EXPECT_GT(merged->percentile(50), 0.0);
  EXPECT_LE(merged->percentile(50), merged->percentile(99));

  std::size_t routed = 0;
  std::size_t per_shard_count = 0;
  for (const ShardInfo& info : router.shard_infos()) {
    routed += info.routed;
    per_shard_count += testutil::latency_count(info.metrics);
    EXPECT_EQ(info.routed, info.metrics.counter_value("engine.requests"));
    // The merged max is at least every shard's max.
    if (testutil::latency_count(info.metrics) > 0) {
      EXPECT_GE(merged->percentile(100),
                info.metrics.find_histogram("engine.latency_us")
                    ->percentile(100));
    }
  }
  EXPECT_EQ(routed, k);
  EXPECT_EQ(per_shard_count, merged->count);
}

TEST(ShardRouter, DisabledResultCacheNeverMemoizesThroughRouter) {
  const auto fused = make_fused();
  RouterConfig config = small_router(3);
  config.engine.result_cache_capacity = 0;
  ShardRouter router(fused, config);
  std::span<const data::Record> records = router_dataset().records();
  const auto first = router.predict_batch(records.subspan(0, 100));
  const auto second = router.predict_batch(records.subspan(0, 100));
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(second[i].scores, first[i].scores);
    EXPECT_FALSE(second[i].cached);
  }
  EXPECT_EQ(router.aggregate_metrics().counter_value("engine.cache_hits"), 0u);
  for (const ShardInfo& info : router.shard_infos()) {
    EXPECT_EQ(info.cache_entries, 0u);
  }
}

TEST(ShardRouter, FailedSubmitDoesNotCountAsRouted) {
  // Regression: submit() used to increment the replica's `routed`
  // counter before the backend could reject the request, overcounting
  // routed traffic on failed submits.
  const auto fused = make_fused();
  ShardRouter router(fused, small_router(2));
  std::span<const data::Record> records = router_dataset().records();

  const std::size_t victim = router.shard_for(records[0].uid);
  RouterTestAccess::shutdown_backend(router, victim);
  EXPECT_THROW((void)router.submit(records[0]), Error);
  EXPECT_THROW((void)router.submit(records[0]), Error);
  EXPECT_EQ(router.shard_infos()[victim].routed, 0u)
      << "failed submits must not count as routed traffic";

  // The healthy shard keeps exact accounting.
  const std::size_t other = 1 - victim;
  std::size_t served = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    if (router.shard_for(records[i].uid) != other) continue;
    (void)router.predict(records[i]);
    ++served;
  }
  ASSERT_GT(served, 0u);
  EXPECT_EQ(router.shard_infos()[other].routed, served);
}

TEST(ShardRouter, PredictBatchQuiescesInFlightPrefixOnFailure) {
  // Regression: a mid-loop submit failure used to abandon the futures of
  // the already-submitted prefix. The partial-failure rule (shared with
  // the RPC tier) is all-or-error: every submitted request is awaited
  // before the exception propagates, so nothing is in flight when the
  // caller sees it.
  const auto fused = make_fused();
  ShardRouter router(fused, small_router(2));
  std::span<const data::Record> records = router_dataset().records();

  const std::size_t victim = router.shard_for(records[0].uid);
  const std::size_t other = 1 - victim;
  // A batch whose prefix routes to the healthy shard and whose LAST
  // record routes to the dead one, so the prefix size is deterministic.
  std::vector<data::Record> batch;
  for (std::size_t i = 0; i < records.size() && batch.size() < 12; ++i) {
    if (router.shard_for(records[i].uid) == other) {
      batch.push_back(records[i]);
    }
  }
  ASSERT_EQ(batch.size(), 12u);
  batch.push_back(records[0]);  // routes to the victim

  RouterTestAccess::shutdown_backend(router, victim);
  EXPECT_THROW((void)router.predict_batch(batch), Error);

  // The quiesce guarantee, observed through the accounting: at the
  // moment predict_batch rethrows, every submitted request has fully
  // completed (latency recorded), not merely been enqueued. Without the
  // await this check races the engine's workers.
  const obs::MetricsSnapshot total = router.aggregate_metrics();
  EXPECT_EQ(total.counter_value("engine.requests"), 12u);
  EXPECT_EQ(testutil::latency_count(total), 12u);

  // The router is immediately usable for records routed to live shards.
  const Prediction after = router.predict(batch[0]);
  EXPECT_EQ(after.scores,
            testutil::canonical_scores(fused->scores(batch[0])));
}

TEST(ShardRouter, RemovedReplicaStatsFreezeAtRemoval) {
  // Post-removal rule: stats freeze at the moment of removal and the
  // backend is destroyed — aggregates and shard_infos() keep reporting
  // the frozen snapshot, and nothing ever pokes a retired engine again.
  const auto fused = make_fused();
  ShardRouter router(fused, small_router(3));
  std::span<const data::Record> records = router_dataset().records();
  (void)router.predict_batch(records.subspan(0, 300));

  const std::size_t removed = router.shard_for(records[0].uid);
  const ShardInfo before = router.shard_infos()[removed];
  ASSERT_GT(before.metrics.counter_value("engine.requests"), 0u);
  ASSERT_GT(before.cache_entries, 0u);
  const obs::MetricsSnapshot total_before = router.aggregate_metrics();
  const std::uint64_t requests_before =
      total_before.counter_value("engine.requests");

  router.remove_replica(removed);

  // Frozen view: identical counters/memo/latency after removal…
  const ShardInfo after = router.shard_infos()[removed];
  EXPECT_FALSE(after.alive);
  EXPECT_EQ(after.metrics.counter_value("engine.requests"),
            before.metrics.counter_value("engine.requests"));
  EXPECT_EQ(after.metrics.counter_value("engine.cache_hits"),
            before.metrics.counter_value("engine.cache_hits"));
  EXPECT_EQ(after.cache_entries, before.cache_entries);
  EXPECT_EQ(testutil::latency_count(after.metrics),
            testutil::latency_count(before.metrics));
  EXPECT_EQ(after.routed, before.routed);
  // …and the aggregates still include the removed shard's history.
  const obs::MetricsSnapshot total_after = router.aggregate_metrics();
  EXPECT_EQ(total_after.counter_value("engine.requests"), requests_before);
  EXPECT_EQ(testutil::latency_count(total_after),
            testutil::latency_count(total_before));

  // The backend is retired: the engine view is gone for good.
  EXPECT_THROW((void)router.replica(removed), Error);

  // Serving continues and new traffic keeps the frozen stats frozen.
  (void)router.predict_batch(records.subspan(300, 100));
  EXPECT_EQ(
      router.shard_infos()[removed].metrics.counter_value("engine.requests"),
      before.metrics.counter_value("engine.requests"));
  EXPECT_EQ(router.aggregate_metrics().counter_value("engine.requests"),
            requests_before + 100);
}

TEST(ShardRouter, RemoveReplicaMidFlightKeepsFrozenStatsConsistent) {
  // Regression: the frozen snapshot used to be taken BEFORE the retired
  // backend drained, so requests completing during the drain lost their
  // latency forever (frozen requests > frozen latency count). The final
  // freeze happens after the drain, so the frozen view is consistent.
  const auto fused = make_fused();
  ShardRouter router(fused, small_router(2));
  std::span<const data::Record> records = router_dataset().records();

  const std::size_t victim = router.shard_for(records[0].uid);
  std::vector<std::future<Prediction>> inflight;
  for (std::size_t i = 0; i < records.size() && inflight.size() < 64; ++i) {
    if (router.shard_for(records[i].uid) == victim) {
      inflight.push_back(router.submit(records[i]));
    }
  }
  ASSERT_GT(inflight.size(), 0u);
  // Remove while those requests may still be in flight; removal drains.
  router.remove_replica(victim);
  for (std::future<Prediction>& future : inflight) (void)future.get();

  const ShardInfo frozen = router.shard_infos()[victim];
  EXPECT_FALSE(frozen.alive);
  EXPECT_EQ(frozen.metrics.counter_value("engine.requests"), inflight.size());
  EXPECT_EQ(testutil::latency_count(frozen.metrics),
            frozen.metrics.counter_value("engine.requests"))
      << "latency recorded during the drain must be in the frozen view";
}

TEST(ShardRouter, ShutdownRejectsNewWorkAndIsIdempotent) {
  const auto fused = make_fused();
  ShardRouter router(fused, small_router(2));
  auto pending = router.submit(router_dataset().record(0));
  router.shutdown();
  (void)pending.get();  // in-flight request completed, not dropped
  EXPECT_THROW((void)router.submit(router_dataset().record(1)), Error);
  EXPECT_THROW((void)router.shard_for(17), Error);
  EXPECT_THROW((void)router.add_replica(), Error);
  router.shutdown();  // idempotent
}

}  // namespace
}  // namespace muffin::serve
