#include "serve/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <iterator>
#include <thread>

#include "common/error.h"
#include "common/failpoint.h"
#include "common/parallel_for.h"
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
  config.max_batch = 32;
  config.result_cache_capacity = ResultMemo::kMaxCapacity + 1;
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

TEST(InferenceEngine, PredictBatchMatchesPerRecordSubmit) {
  // The queued path (submit, batched on the pool) and the direct path
  // (predict_batch, one batch on the calling thread) share one scoring
  // core: same scores and flags, row for row.
  const auto fused = make_fused(true);
  EngineConfig config;
  config.max_batch = 16;
  config.result_cache_capacity = 0;  // both paths score every row
  InferenceEngine engine(fused, config);

  const std::span<const data::Record> records =
      std::span<const data::Record>(engine_dataset().records()).subspan(0, 100);
  std::vector<std::future<Prediction>> queued;
  for (const data::Record& record : records) {
    queued.push_back(engine.submit(record));
  }
  const std::vector<Prediction> direct = engine.predict_batch(records);
  ASSERT_EQ(direct.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Prediction reply = queued[i].get();
    EXPECT_EQ(direct[i].scores, reply.scores) << "record " << i;
    EXPECT_EQ(direct[i].predicted, reply.predicted) << "record " << i;
    EXPECT_EQ(direct[i].consensus, reply.consensus) << "record " << i;
    EXPECT_EQ(direct[i].model_version, reply.model_version);
    EXPECT_EQ(direct[i].scores,
              testutil::canonical_scores(fused->scores(records[i])))
        << "record " << i;
  }
  EXPECT_EQ(engine.metrics().counter_value("engine.requests"), 200u);
}

TEST(InferenceEngine, PredictBatchIsOneBatchOnTheCallingThread) {
  // The direct path counts exactly like a queued batch, never touches the
  // engine's queue, and a stopped engine rejects it — an empty span too —
  // without counting anything.
  InferenceEngine engine(make_fused(true));
  std::span<const data::Record> records = engine_dataset().records();
  const std::int64_t queued_before = testutil::queued_requests();

  constexpr std::size_t kRows = 100;
  ASSERT_EQ(engine.predict_batch(records.subspan(0, kRows)).size(), kRows);
  EXPECT_TRUE(engine.predict_batch({}).empty());  // counts no batch
  const auto expect_one_batch = [&]() {
    const obs::MetricsSnapshot metrics = engine.metrics();
    EXPECT_EQ(metrics.counter_value("engine.batches"), 1u);
    EXPECT_EQ(metrics.counter_value("engine.requests"), kRows);
    EXPECT_EQ(testutil::latency_count(metrics), kRows);
    EXPECT_EQ(metrics.find_histogram("engine.batch_size")->count, 1u);
    EXPECT_EQ(metrics.counter_value("engine.cache_misses"), kRows);
    EXPECT_EQ(metrics.counter_value("engine.consensus_short_circuits") +
                  metrics.counter_value("engine.head_evaluations"),
              kRows);
  };
  expect_one_batch();
  EXPECT_EQ(testutil::queued_requests(), queued_before);

  engine.shutdown();
  EXPECT_THROW((void)engine.predict_batch(records.subspan(0, 8)), Error);
  EXPECT_THROW((void)engine.predict_batch({}), Error);
  expect_one_batch();
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

TEST(InferenceEngine, MemoBytesCountReplyPayloadInEveryQuantMode) {
  // memo_bytes() and the serve.result_memo_bytes gauge both count the
  // reply payload of every live entry: C scores at the memo mode's width,
  // plus the 8-byte scale of an int8 reply. Pinned after a fill, after
  // LRU evictions, after stale entries are replaced in place following a
  // swap, and with the memo disabled.
  const auto gated = make_fused(true);
  const auto ungated = make_fused(false);  // both trained before any pin
  const std::span<const data::Record> records = engine_dataset().records();
  const std::size_t classes = gated->num_classes();
  for (const tensor::QuantMode mode :
       {tensor::QuantMode::Off, tensor::QuantMode::Bf16,
        tensor::QuantMode::Int8}) {
    SCOPED_TRACE(std::string(tensor::quant_mode_name(mode)));
    const tensor::ScopedQuantMode pin(mode);
    const std::size_t per_entry =
        mode == tensor::QuantMode::Off    ? 8 * classes
        : mode == tensor::QuantMode::Bf16 ? 2 * classes
                                          : classes + 8;
    const auto expect_bytes = [&](const InferenceEngine& engine,
                                  std::size_t entries) {
      EXPECT_EQ(engine.memo_quant_mode(), mode);
      EXPECT_EQ(engine.cache_entries(), entries);
      EXPECT_EQ(engine.memo_bytes(), entries * per_entry);
      EXPECT_EQ(engine.metrics().gauge_value("serve.result_memo_bytes"),
                static_cast<std::int64_t>(entries * per_entry));
    };

    InferenceEngine engine(gated);
    expect_bytes(engine, 0);
    (void)engine.predict_batch(records.subspan(0, 50));
    expect_bytes(engine, 50);
    ASSERT_EQ(engine.swap_model(ungated), 2u);
    for (const Prediction& p : engine.predict_batch(records.subspan(0, 50))) {
      EXPECT_FALSE(p.cached);  // every entry was stale and is replaced
    }
    expect_bytes(engine, 50);
    (void)engine.predict_batch(records.subspan(40, 20));
    expect_bytes(engine, 60);

    EngineConfig tiny;
    tiny.result_cache_capacity = 4;
    InferenceEngine small(gated, tiny);
    (void)small.predict_batch(records.subspan(0, 20));
    expect_bytes(small, 4);
    (void)small.predict_batch(records.subspan(100, 3));
    expect_bytes(small, 4);

    EngineConfig disabled_config;
    disabled_config.result_cache_capacity = 0;
    InferenceEngine disabled(gated, disabled_config);
    (void)disabled.predict_batch(records.subspan(0, 20));
    expect_bytes(disabled, 0);
  }
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

TEST(InferenceEngine, BacklogStaysInTheBoundedQueue) {
  // The engine never has more than pool-width batches on the pool, so a
  // burst far past max_queue is shed at admission instead of piling up
  // in the pool's job queue: at most max_queue requests wait, at most
  // pool-width batches of max_batch run, and each shed is reported long
  // before a held scoring pass could finish.
  const auto fused = make_fused(true);
  EngineConfig config;
  config.max_queue = 64;
  InferenceEngine engine(fused, config);
  const std::size_t width = common::global_pool().size();
  std::span<const data::Record> records = engine_dataset().records();
  constexpr std::size_t kBurst = 2000;
  std::vector<std::future<Prediction>> admitted;
  std::vector<std::size_t> admitted_rows;
  std::size_t shed = 0;
  double worst_shed_ms = 0.0;
  std::size_t most_pending = 0;
  {
    const fail::ScopedFailpoints hold("serve.engine.score=delay:1s");
    for (std::size_t i = 0; i < kBurst; ++i) {
      const std::size_t row = i % records.size();
      const auto start = std::chrono::steady_clock::now();
      try {
        admitted.push_back(engine.submit(records[row]));
        admitted_rows.push_back(row);
      } catch (const Overloaded&) {
        worst_shed_ms = std::max(
            worst_shed_ms, std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count());
        ++shed;
      }
      most_pending = std::max(most_pending, common::global_pool().pending());
    }
    for (std::size_t k = 0; k < admitted.size(); ++k) {
      ASSERT_EQ(admitted[k].get().scores,
                testutil::canonical_scores(
                    fused->scores(records[admitted_rows[k]])))
          << "request " << k;
    }
  }
  EXPECT_LE(admitted.size(), config.max_queue + width * config.max_batch);
  EXPECT_EQ(admitted.size() + shed, kBurst);
  EXPECT_EQ(engine.metrics().counter_value("serve.shed"), shed);
  EXPECT_LE(most_pending, width);
  EXPECT_LT(worst_shed_ms, 50.0);  // a twentieth of the scoring hold
}

TEST(InferenceEngine, ASaturatedEngineLeavesThePoolToOtherJobs) {
  // A finishing batch hands the engine's next batch back through the
  // pool's queue instead of running it on its own worker. So while a
  // feeder keeps the engine saturated, a job submitted to the shared pool
  // starts behind the batches already queued, not when the load stops.
  const auto fused = make_fused(true);
  EngineConfig config;
  config.max_batch = 4;
  config.result_cache_capacity = 0;
  InferenceEngine engine(fused, config);
  std::span<const data::Record> records = engine_dataset().records();
  const fail::ScopedFailpoints hold("serve.engine.score=delay:5ms");
  std::atomic<bool> stop{false};
  std::thread feeder([&]() {
    constexpr std::size_t kInFlight = 64;
    std::deque<std::future<Prediction>> in_flight;
    for (std::size_t i = 0; !stop.load(); ++i) {
      if (in_flight.size() == kInFlight) {
        (void)in_flight.front().get();
        in_flight.pop_front();
      }
      in_flight.push_back(engine.submit(records[i % records.size()]));
    }
    for (std::future<Prediction>& future : in_flight) (void)future.get();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto submitted = std::chrono::steady_clock::now();
  std::future<std::chrono::steady_clock::time_point> job =
      common::global_pool().submit(
          []() { return std::chrono::steady_clock::now(); });
  // The feeder stops once the job has run, or after 2 s if it has not.
  [[maybe_unused]] const std::future_status status =
      job.wait_for(std::chrono::seconds(2));
  stop.store(true);
  feeder.join();
  [[maybe_unused]] const auto waited = job.get() - submitted;
  // Wall-clock bounds mean nothing under TSan's ~10x slowdown.
#if !MUFFIN_UNDER_TSAN
  EXPECT_EQ(status, std::future_status::ready);
  EXPECT_LT(waited, std::chrono::milliseconds(100));
#endif
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
  // whichever engine's queue moved last. Scoring is held, so each
  // engine's first request runs and the rest queue behind it.
  const fail::ScopedFailpoints hold("serve.engine.score=delay:100ms");
  EngineConfig config;
  config.max_batch = 1000;
  InferenceEngine a(make_fused(true), config);
  InferenceEngine b(make_fused(true), config);
  std::span<const data::Record> records = engine_dataset().records();
  std::vector<std::future<Prediction>> queued;
  queued.push_back(testutil::submit_and_wait_for_dispatch(a, records[0]));
  queued.push_back(testutil::submit_and_wait_for_dispatch(b, records[1]));
  for (std::size_t i = 2; i < 5; ++i) queued.push_back(a.submit(records[i]));
  for (std::size_t i = 5; i < 7; ++i) queued.push_back(b.submit(records[i]));
  EXPECT_EQ(testutil::queued_requests(), 5);
  a.shutdown();
  b.shutdown();
  EXPECT_EQ(testutil::queued_requests(), 0);
  for (std::future<Prediction>& future : queued) (void)future.get();
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

// ---------------------------------------------------------------------
// Batcher: how the engine hands its queued requests to the pool (Nagle's
// rule, engine.h). A full batch leaves at once while a pool worker is
// free, no batch exceeds max_batch, a partial batch leaves when none of
// the engine's batches runs, and shutdown drains, then rejects. Where a
// test needs a queue, a serve.engine.score delay holds the running batch.

// This engine's engine.batch_size histogram: one observation per batch.
obs::HistogramSnapshot batch_sizes(const InferenceEngine& engine) {
  return *engine.metrics().find_histogram("engine.batch_size");
}

TEST(Batcher, RejectsBadConfig) {
  // A batch of zero requests could never leave the queue. One is the
  // smallest batch: then every request leaves on its own.
  const auto fused = make_fused(true);
  EngineConfig config;
  config.max_batch = 0;
  EXPECT_THROW(InferenceEngine(fused, config), Error);
  config.max_batch = 1;
  InferenceEngine engine(fused, config);
  std::span<const data::Record> records = engine_dataset().records();
  std::vector<std::future<Prediction>> futures;
  for (std::size_t i = 0; i < 6; ++i) {
    futures.push_back(engine.submit(records[i]));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().scores,
              testutil::canonical_scores(fused->scores(records[i])))
        << "record " << i;
  }
  const obs::HistogramSnapshot sizes = batch_sizes(engine);
  EXPECT_EQ(sizes.count, 6u);
  EXPECT_EQ(sizes.sum, 6.0);
}

TEST(Batcher, SizeFlushReleasesFullBatchImmediately) {
  // One request runs, held; max_batch more queue behind it. The submit
  // that fills the batch hands it to a free pool worker at once, without
  // waiting for the running batch. With a one-worker pool no worker is
  // free, and the full batch leaves whole when the running one finishes.
  const auto fused = make_fused(true);
  EngineConfig config;
  config.max_batch = 8;
  config.result_cache_capacity = 0;
  InferenceEngine engine(fused, config);
  const std::size_t width = common::global_pool().size();
  std::span<const data::Record> records = engine_dataset().records();
  const std::int64_t idle = testutil::queued_requests();
  std::vector<std::future<Prediction>> futures;
  {
    const fail::ScopedFailpoints hold("serve.engine.score=delay:500ms");
    futures.push_back(
        testutil::submit_and_wait_for_dispatch(engine, records[0]));
    for (std::size_t i = 1; i <= config.max_batch; ++i) {
      futures.push_back(engine.submit(records[i]));
    }
    if (width > 1) {
      while (testutil::queued_requests() != idle) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      // The full batch left while the first request is still held.
      EXPECT_NE(futures[0].wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      EXPECT_EQ(futures[i].get().scores,
                testutil::canonical_scores(fused->scores(records[i])))
          << "record " << i;
    }
  }
  const obs::HistogramSnapshot sizes = batch_sizes(engine);
  EXPECT_EQ(sizes.count, 2u);  // the held request, then one full batch
  EXPECT_EQ(sizes.sum, 1.0 + static_cast<double>(config.max_batch));
}

TEST(Batcher, SizeFlushCapsOversizedBacklog) {
  // Scoring is held, so a backlog of three batches' worth queues behind
  // the running request; it leaves in batches of at most max_batch, and
  // every reply is exact.
  const auto fused = make_fused(true);
  EngineConfig config;
  config.max_batch = 4;
  config.result_cache_capacity = 0;
  InferenceEngine engine(fused, config);
  std::span<const data::Record> records = engine_dataset().records();
  constexpr std::size_t kBacklog = 12;
  {
    const fail::ScopedFailpoints hold("serve.engine.score=delay:50ms");
    std::vector<std::future<Prediction>> futures;
    futures.push_back(
        testutil::submit_and_wait_for_dispatch(engine, records[0]));
    for (std::size_t i = 1; i <= kBacklog; ++i) {
      futures.push_back(engine.submit(records[i]));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      EXPECT_EQ(futures[i].get().scores,
                testutil::canonical_scores(fused->scores(records[i])))
          << "record " << i;
    }
  }
  const obs::HistogramSnapshot sizes = batch_sizes(engine);
  EXPECT_EQ(sizes.sum, 1.0 + kBacklog);
  EXPECT_GE(sizes.count, 1 + kBacklog / config.max_batch);
  // Bucket bounds are 1, 2, 4, 8, ...: no batch falls above the 4 bucket.
  ASSERT_EQ(sizes.bounds[2], 4.0);
  for (std::size_t b = 3; b < sizes.counts.size(); ++b) {
    EXPECT_EQ(sizes.counts[b], 0u) << "batches above max_batch in bucket "
                                   << b;
  }
}

TEST(Batcher, DeadlineFlushReleasesPartialBatch) {
  // No timer releases a partial batch, and no full batch forms: three
  // requests queued behind a held one leave together when it finishes,
  // not beside it.
  const auto fused = make_fused(true);
  EngineConfig config;
  config.max_batch = 64;
  config.result_cache_capacity = 0;
  InferenceEngine engine(fused, config);
  std::span<const data::Record> records = engine_dataset().records();
  constexpr auto kHold = std::chrono::milliseconds(200);
  const auto before = std::chrono::steady_clock::now();
  {
    const fail::ScopedFailpoints hold("serve.engine.score=delay:200ms");
    std::vector<std::future<Prediction>> futures;
    futures.push_back(
        testutil::submit_and_wait_for_dispatch(engine, records[0]));
    for (std::size_t i = 1; i < 4; ++i) {
      futures.push_back(engine.submit(records[i]));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      EXPECT_EQ(futures[i].get().scores,
                testutil::canonical_scores(fused->scores(records[i])))
          << "record " << i;
    }
  }
  const auto waited = std::chrono::steady_clock::now() - before;
  const obs::HistogramSnapshot sizes = batch_sizes(engine);
  EXPECT_EQ(sizes.count, 2u);  // the held request, then the other three
  EXPECT_EQ(sizes.sum, 4.0);
  // Two held passes, one after the other — and no unbounded waiting.
  EXPECT_GE(waited, 2 * kHold);
  EXPECT_LT(waited, std::chrono::seconds(5));
}

TEST(Batcher, ConsumerWakesForLateProducer) {
  // No timer holds a request back for company: on an idle engine each
  // predict() is a batch of its own, however large max_batch is. Each
  // submit finds nothing running and hands its request to the pool.
  const auto fused = make_fused(true);
  EngineConfig config;
  config.max_batch = 1000;
  InferenceEngine engine(fused, config);
  for (std::size_t i = 0; i < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const data::Record& record = engine_dataset().record(i);
    EXPECT_EQ(engine.predict(record).scores,
              testutil::canonical_scores(fused->scores(record)));
  }
  const obs::HistogramSnapshot sizes = batch_sizes(engine);
  EXPECT_EQ(sizes.count, 3u);
  EXPECT_EQ(sizes.sum, 3.0);
}

TEST(Batcher, CloseDrainsThenSignalsTermination) {
  // Scoring is held: one request runs while ten queue behind it.
  // shutdown() answers every one of them, in batches of at most
  // max_batch, before it returns; then the engine rejects new work.
  const auto fused = make_fused(true);
  std::span<const data::Record> records = engine_dataset().records();
  EngineConfig config;
  config.max_batch = 4;
  InferenceEngine engine(fused, config);
  std::vector<std::future<Prediction>> pending;
  {
    const fail::ScopedFailpoints hold("serve.engine.score=delay:20ms");
    pending.push_back(
        testutil::submit_and_wait_for_dispatch(engine, records[0]));
    for (std::size_t i = 1; i < 11; ++i) {
      pending.push_back(engine.submit(records[i]));
    }
    engine.shutdown();
  }
  for (std::size_t i = 0; i < pending.size(); ++i) {
    ASSERT_EQ(pending[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "request " << i;
    // Queued requests completed, not dropped.
    EXPECT_EQ(pending[i].get().scores,
              testutil::canonical_scores(fused->scores(records[i])));
  }
  const obs::HistogramSnapshot sizes = batch_sizes(engine);
  EXPECT_EQ(sizes.sum, 11.0);
  EXPECT_GE(sizes.count, 1u + 3u);  // ten queued, at most four per batch
  EXPECT_THROW((void)engine.submit(records[11]), Error);
  engine.shutdown();  // idempotent
}

TEST(Batcher, CloseWakesBlockedConsumer) {
  // There is no consumer to wake: an engine starts no thread of its own,
  // and its batches run as jobs on the shared pool. So engines leave the
  // process's thread count as it was, and shutdown() of an idle engine
  // returns at once, whether or not the engine ever served.
  const auto thread_count = []() {
    const std::filesystem::directory_iterator tasks("/proc/self/task");
    return std::distance(std::filesystem::begin(tasks),
                         std::filesystem::end(tasks));
  };
  const auto fused = make_fused(true);
  (void)common::global_pool();  // its workers are counted from the start
  const auto threads = thread_count();
  InferenceEngine fresh(fused);
  InferenceEngine served(fused);
  (void)served.predict(engine_dataset().record(0));
  EXPECT_EQ(thread_count(), threads);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const auto before = std::chrono::steady_clock::now();
  fresh.shutdown();
  served.shutdown();
  EXPECT_LT(std::chrono::steady_clock::now() - before,
            std::chrono::seconds(5));
  EXPECT_EQ(thread_count(), threads);
  EXPECT_THROW((void)fresh.submit(engine_dataset().record(1)), Error);
}

}  // namespace
}  // namespace muffin::serve
