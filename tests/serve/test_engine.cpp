#include "serve/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/error.h"
#include "serve_test_util.h"
#include "tensor/ops.h"

namespace muffin::serve {
namespace {

const data::Dataset& engine_dataset() {
  static const data::Dataset ds = data::synthetic_isic2019(1500, 77);
  return ds;
}

const models::ModelPool& engine_pool() {
  static const models::ModelPool pool =
      models::calibrated_isic_pool(engine_dataset());
  return pool;
}

// One shared immutable FusedModel per gate variant (training is
// deterministic; retraining per test would dominate TSan runtime).
std::shared_ptr<core::FusedModel> make_fused(bool head_only_on_disagreement) {
  static const std::shared_ptr<core::FusedModel> gated =
      testutil::build_fused(engine_pool(), engine_dataset(), /*epochs=*/6,
                            /*head_only_on_disagreement=*/true);
  static const std::shared_ptr<core::FusedModel> ungated =
      testutil::build_fused(engine_pool(), engine_dataset(), /*epochs=*/6,
                            /*head_only_on_disagreement=*/false);
  return head_only_on_disagreement ? gated : ungated;
}

TEST(InferenceEngine, RejectsBadConstruction) {
  EXPECT_THROW(InferenceEngine(nullptr), Error);
  EngineConfig config;
  config.max_batch = 0;
  EXPECT_THROW(InferenceEngine(make_fused(true), config), Error);
}

TEST(InferenceEngine, BatchedOutputBitIdenticalToSequentialScores) {
  const auto fused = make_fused(true);
  EngineConfig config;
  config.max_batch = 32;
  InferenceEngine engine(fused, config);

  std::span<const data::Record> records = engine_dataset().records();
  const std::vector<Prediction> batched = engine.predict_batch(records);

  ASSERT_EQ(batched.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const tensor::Vector expected =
        testutil::canonical_scores(fused->scores(records[i]));
    EXPECT_EQ(batched[i].scores, expected) << "record " << i;
    EXPECT_EQ(batched[i].predicted, tensor::argmax(expected)) << "record "
                                                              << i;
  }
}

TEST(InferenceEngine, SubmitBatchMatchesPerRecordSubmit) {
  // submit_batch is the RPC server's frame path: one atomic group
  // enqueue, one future per record, same arithmetic as submit().
  const auto fused = make_fused(true);
  EngineConfig config;
  config.max_batch = 16;
  InferenceEngine engine(fused, config);

  std::span<const data::Record> records = engine_dataset().records();
  std::vector<std::future<Prediction>> futures =
      engine.submit_batch(records.subspan(0, 100));
  ASSERT_EQ(futures.size(), 100u);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().scores,
              testutil::canonical_scores(fused->scores(records[i])))
        << "record " << i;
  }
  EXPECT_EQ(engine.metrics().counter_value("engine.requests"), 100u);

  // All-or-nothing on a stopped engine: no partial prefix, no count.
  engine.shutdown();
  EXPECT_THROW((void)engine.submit_batch(records.subspan(0, 8)), Error);
  EXPECT_EQ(engine.metrics().counter_value("engine.requests"), 100u);
}

TEST(InferenceEngine, ParityHoldsWithHeadEverywhere) {
  const auto fused = make_fused(false);
  InferenceEngine engine(fused);
  std::span<const data::Record> records = engine_dataset().records();
  const std::vector<Prediction> batched =
      engine.predict_batch(records.subspan(0, 400));
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i].scores,
              testutil::canonical_scores(fused->scores(records[i])))
        << "record " << i;
    EXPECT_FALSE(batched[i].consensus);
  }
}

TEST(InferenceEngine, ConsensusFlagMatchesBodyAgreement) {
  const auto fused = make_fused(true);
  InferenceEngine engine(fused);
  std::size_t consensus_seen = 0;
  for (std::size_t i = 0; i < 300; ++i) {
    const data::Record& record = engine_dataset().record(i);
    const Prediction prediction = engine.predict(record);
    const bool agree = fused->body()[0]->predict(record) ==
                       fused->body()[1]->predict(record);
    EXPECT_EQ(prediction.consensus, agree) << "record " << i;
    if (agree) {
      EXPECT_EQ(prediction.predicted, fused->body()[0]->predict(record));
      ++consensus_seen;
    }
  }
  EXPECT_GT(consensus_seen, 0u);
  const obs::MetricsSnapshot metrics = engine.metrics();
  EXPECT_EQ(metrics.counter_value("engine.consensus_short_circuits"),
            consensus_seen);
  EXPECT_EQ(metrics.counter_value("engine.requests"), 300u);
}

TEST(InferenceEngine, RepeatedRequestsAreServedFromCache) {
  const auto fused = make_fused(true);
  InferenceEngine engine(fused);
  std::span<const data::Record> records = engine_dataset().records();
  const auto first = engine.predict_batch(records.subspan(0, 200));
  const auto second = engine.predict_batch(records.subspan(0, 200));
  ASSERT_EQ(first.size(), second.size());
  std::size_t cached = 0;
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(second[i].scores, first[i].scores);
    EXPECT_EQ(second[i].predicted, first[i].predicted);
    if (second[i].cached) ++cached;
  }
  // Every repeat must hit the memo (capacity far exceeds 200 records).
  EXPECT_EQ(cached, second.size());
  EXPECT_GE(engine.metrics().counter_value("engine.cache_hits"), cached);
}

TEST(InferenceEngine, CacheDisabledStillBitIdentical) {
  const auto fused = make_fused(true);
  EngineConfig config;
  config.result_cache_capacity = 0;
  InferenceEngine engine(fused, config);
  std::span<const data::Record> records = engine_dataset().records();
  const auto first = engine.predict_batch(records.subspan(0, 100));
  const auto second = engine.predict_batch(records.subspan(0, 100));
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].scores, second[i].scores);
    EXPECT_FALSE(second[i].cached);
  }
  EXPECT_EQ(engine.metrics().counter_value("engine.cache_hits"), 0u);
}

TEST(InferenceEngine, DisabledCacheNeverMemoizesEvenUnderConcurrency) {
  // Regression for the result_cache_capacity = 0 path: a disabled cache
  // must never memoize (no entry, no cached flag, no hit counter) and
  // must never crash, including when hot uids hammer it from many
  // threads at once.
  const auto fused = make_fused(true);
  EngineConfig config;
  config.result_cache_capacity = 0;
  config.max_batch = 8;
  InferenceEngine engine(fused, config);
  std::span<const data::Record> records = engine_dataset().records();

  std::vector<std::thread> clients;
  std::atomic<std::size_t> cached_answers{0};
  for (std::size_t t = 0; t < 4; ++t) {
    clients.emplace_back([&]() {
      for (std::size_t i = 0; i < 50; ++i) {
        // Everyone hits the same 8 hot records — maximum memo pressure.
        if (engine.predict(records[i % 8]).cached) {
          cached_answers.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(cached_answers.load(), 0u);
  EXPECT_EQ(engine.metrics().counter_value("engine.cache_hits"), 0u);
  EXPECT_EQ(engine.cache_entries(), 0u);
  EXPECT_FALSE(engine.cache_contains(records[0].uid));
}

TEST(InferenceEngine, CacheIntrospectionTracksMemoContents) {
  const auto fused = make_fused(true);
  InferenceEngine engine(fused);
  std::span<const data::Record> records = engine_dataset().records();
  EXPECT_EQ(engine.cache_entries(), 0u);
  (void)engine.predict_batch(records.subspan(0, 50));
  EXPECT_EQ(engine.cache_entries(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_TRUE(engine.cache_contains(records[i].uid)) << "record " << i;
  }
  EXPECT_FALSE(engine.cache_contains(records[50].uid));
  // cache_contains is a pure observer: it must not refresh LRU recency.
  EngineConfig tiny;
  tiny.result_cache_capacity = 4;
  tiny.max_batch = 1;
  InferenceEngine small(fused, tiny);
  for (std::size_t i = 0; i < 4; ++i) (void)small.predict(records[i]);
  ASSERT_TRUE(small.cache_contains(records[0].uid));
  (void)small.predict(records[4]);  // evicts the oldest entry: record 0
  EXPECT_FALSE(small.cache_contains(records[0].uid));
  EXPECT_EQ(small.cache_entries(), 4u);
}

TEST(InferenceEngine, TinyCacheEvictsButStaysCorrect) {
  const auto fused = make_fused(true);
  EngineConfig config;
  config.result_cache_capacity = 8;
  config.max_batch = 4;
  InferenceEngine engine(fused, config);
  std::span<const data::Record> records = engine_dataset().records();
  const auto batched = engine.predict_batch(records.subspan(0, 64));
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i].scores,
              testutil::canonical_scores(fused->scores(records[i])));
  }
}

TEST(InferenceEngine, ConcurrentSubmittersAllGetCorrectAnswers) {
  const auto fused = make_fused(true);
  EngineConfig config;
  config.max_batch = 16;
  InferenceEngine engine(fused, config);
  std::span<const data::Record> records = engine_dataset().records();

  constexpr std::size_t kPerThread = 100;
  std::vector<std::thread> clients;
  std::vector<std::vector<std::size_t>> answers(4);
  for (std::size_t t = 0; t < 4; ++t) {
    clients.emplace_back([&, t]() {
      answers[t].reserve(kPerThread);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t r = (t * 37 + i * 11) % records.size();
        answers[t].push_back(engine.predict(records[r]).predicted);
      }
    });
  }
  for (auto& client : clients) client.join();
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      const std::size_t r = (t * 37 + i * 11) % records.size();
      // The engine's predicted class is the argmax of the canonical
      // (quant-rounded) scores — a near-tie can legitimately flip vs the
      // float argmax, so compare in canonical space.
      EXPECT_EQ(answers[t][i],
                tensor::argmax(
                    testutil::canonical_scores(fused->scores(records[r]))));
    }
  }
}

TEST(InferenceEngine, ShutdownDrainsAndRejectsNewWork) {
  const auto fused = make_fused(true);
  InferenceEngine engine(fused);
  auto pending = engine.submit(engine_dataset().record(0));
  engine.shutdown();
  EXPECT_EQ(pending.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  (void)pending.get();  // in-flight request completed, not dropped
  EXPECT_THROW((void)engine.submit(engine_dataset().record(1)), Error);
  engine.shutdown();  // idempotent
}

TEST(InferenceEngine, LatencyHistogramCoversEveryRequest) {
  InferenceEngine engine(make_fused(true));
  std::span<const data::Record> records = engine_dataset().records();
  (void)engine.predict_batch(records.subspan(0, 128));
  const obs::MetricsSnapshot metrics = engine.metrics();
  EXPECT_EQ(testutil::latency_count(metrics), 128u);
  const obs::HistogramSnapshot& latency =
      *metrics.find_histogram("engine.latency_us");
  EXPECT_GT(latency.percentile(50), 0.0);
  EXPECT_LE(latency.percentile(50), latency.percentile(95));
  EXPECT_LE(latency.percentile(95), latency.percentile(99));
  EXPECT_LE(latency.percentile(99), latency.percentile(100));
}

TEST(InferenceEngine, BatcherDepthGaugeSumsAcrossEngines) {
  // The process view of engine.batcher.depth is the total queued, not
  // whichever engine's queue moved last.
  EngineConfig config;
  config.max_batch = 1000;
  config.max_delay = std::chrono::seconds(10);
  InferenceEngine a(make_fused(true), config);
  InferenceEngine b(make_fused(true), config);
  std::span<const data::Record> records = engine_dataset().records();
  auto queued_a = a.submit_batch(records.subspan(0, 3));
  auto queued_b = b.submit_batch(records.subspan(3, 2));
  const auto depth = []() {
    return obs::registry().snapshot().gauge_value("engine.batcher.depth");
  };
  EXPECT_EQ(depth(), 5);
  a.shutdown();  // drains now instead of after 10 s
  b.shutdown();
  EXPECT_EQ(depth(), 0);
  EXPECT_EQ(collect_all_or_error(std::move(queued_a)).size(), 3u);
  EXPECT_EQ(collect_all_or_error(std::move(queued_b)).size(), 2u);
}

TEST(InferenceEngine, ProcessRegistrySumsEnginesAndKeepsDestroyedOnes) {
  std::span<const data::Record> records = engine_dataset().records();
  const auto process_requests = []() {
    return obs::registry().snapshot().counter_value("engine.requests");
  };
  const std::uint64_t before = process_requests();
  {
    InferenceEngine a(make_fused(true));
    InferenceEngine b(make_fused(true));
    (void)a.predict_batch(records.subspan(0, 30));
    (void)b.predict_batch(records.subspan(0, 12));
    EXPECT_EQ(a.metrics().counter_value("engine.requests"), 30u);
    EXPECT_EQ(process_requests(), before + 42);
  }
  EXPECT_EQ(process_requests(), before + 42);
}

}  // namespace
}  // namespace muffin::serve
