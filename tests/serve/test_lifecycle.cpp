// The zero-downtime model lifecycle: ModelRegistry epoch semantics,
// InferenceEngine::swap_model under live load, the version-keyed result
// memo (a hot-swap must never serve a pre-swap score post-swap), and
// reload_head_artifact — the one reload path the Reload RPC, the replica
// backends and the CLI's SIGHUP handler share.
//
// The swap-under-load tests are part of the TSan battery: many client
// threads score while a publisher rolls versions, and every reply must be
// bit-identical to the scores of the version it reports having been
// served by.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

#include "common/error.h"
#include "data/serialize.h"
#include "serve/engine.h"
#include "serve/model_registry.h"
#include "serve_test_util.h"
#include "tensor/ops.h"

namespace muffin::serve {
namespace {

const data::Dataset& lifecycle_dataset() {
  static const data::Dataset ds = data::synthetic_isic2019(700, 91);
  return ds;
}

const models::ModelPool& lifecycle_pool() {
  static const models::ModelPool pool =
      models::calibrated_isic_pool(lifecycle_dataset());
  return pool;
}

// Two distinct published generations of the same muffin: identical body
// pool and serving shape, different head weights (epoch counts differ).
// Head-everywhere gating so the head weights reach every score — a swap
// must change (almost) every reply, which is what the leak tests need.
std::shared_ptr<core::FusedModel> model_a() {
  static const std::shared_ptr<core::FusedModel> fused =
      testutil::build_fused(lifecycle_pool(), lifecycle_dataset(),
                            /*epochs=*/6, /*head_only_on_disagreement=*/false);
  return fused;
}

std::shared_ptr<core::FusedModel> model_b() {
  static const std::shared_ptr<core::FusedModel> fused =
      testutil::build_fused(lifecycle_pool(), lifecycle_dataset(),
                            /*epochs=*/2, /*head_only_on_disagreement=*/false);
  return fused;
}

TEST(ModelRegistry, PinOutlivesLaterPublishes) {
  ModelRegistry registry(model_a(), /*version=*/1);
  const std::shared_ptr<const ModelSnapshot> pin = registry.current();
  EXPECT_EQ(pin->version, 1u);
  EXPECT_EQ(pin->model, model_a());

  const auto installed = registry.publish(model_b());
  EXPECT_EQ(installed->version, 2u);
  EXPECT_EQ(registry.version(), 2u);
  // The old pin still reads the old model: epoch semantics.
  EXPECT_EQ(pin->version, 1u);
  EXPECT_EQ(pin->model, model_a());
  EXPECT_EQ(registry.current()->model, model_b());
}

TEST(ModelRegistry, VersionsAdvanceMonotonically) {
  ModelRegistry registry(model_a(), /*version=*/3);
  // Auto-assignment continues from the current version.
  EXPECT_EQ(registry.publish(model_b())->version, 4u);
  // An explicit version must strictly advance: equal and lower throw.
  EXPECT_THROW((void)registry.publish(model_a(), 4), Error);
  EXPECT_THROW((void)registry.publish(model_a(), 2), Error);
  EXPECT_EQ(registry.version(), 4u);  // failed publishes change nothing
  EXPECT_EQ(registry.publish(model_a(), 10)->version, 10u);
}

TEST(ModelRegistry, RejectsBadConstructionAndNullPublish) {
  EXPECT_THROW(ModelRegistry(nullptr, 1), Error);
  EXPECT_THROW(ModelRegistry(model_a(), 0), Error);
  ModelRegistry registry(model_a(), 1);
  EXPECT_THROW((void)registry.publish(nullptr), Error);
}

TEST(EngineLifecycle, SwapPublishesNewVersionWithoutPausingTraffic) {
  InferenceEngine engine(model_a());
  EXPECT_EQ(engine.model_version(), 1u);
  EXPECT_EQ(engine.swaps(), 0u);

  const data::Record& record = lifecycle_dataset().record(0);
  Prediction before = engine.predict(record);
  EXPECT_EQ(before.model_version, 1u);
  EXPECT_EQ(before.scores,
            testutil::canonical_scores(model_a()->scores(record)));

  EXPECT_EQ(engine.swap_model(model_b()), 2u);
  EXPECT_EQ(engine.model_version(), 2u);
  EXPECT_EQ(engine.swaps(), 1u);

  Prediction after = engine.predict(record);
  EXPECT_EQ(after.model_version, 2u);
  EXPECT_EQ(after.scores,
            testutil::canonical_scores(model_b()->scores(record)));

  // The rollback guard reaches through the engine too.
  EXPECT_THROW((void)engine.swap_model(model_a(), 2), Error);
  EXPECT_EQ(engine.model_version(), 2u);
}

TEST(EngineLifecycle, MemoNeverServesPreSwapScoresPostSwap) {
  // The stale-score regression: fill the memo under version 1, swap, and
  // re-request every memoized uid. Every post-swap reply must carry the
  // new version, must not claim a cache hit (the version key forces a
  // rescore), and must match the new model bit-for-bit.
  EngineConfig config;
  config.max_batch = 16;
  InferenceEngine engine(model_a(), config);
  const std::span<const data::Record> records =
      std::span<const data::Record>(lifecycle_dataset().records())
          .subspan(0, 64);

  (void)engine.predict_batch(records);
  const std::vector<Prediction> warm = engine.predict_batch(records);
  for (const Prediction& p : warm) {
    EXPECT_TRUE(p.cached);
    EXPECT_EQ(p.model_version, 1u);
  }

  ASSERT_EQ(engine.swap_model(model_b()), 2u);
  const std::vector<Prediction> swapped = engine.predict_batch(records);
  for (std::size_t i = 0; i < swapped.size(); ++i) {
    EXPECT_FALSE(swapped[i].cached) << "record " << i;
    EXPECT_EQ(swapped[i].model_version, 2u) << "record " << i;
    EXPECT_EQ(swapped[i].scores,
              testutil::canonical_scores(model_b()->scores(records[i])))
        << "record " << i;
  }
  // The rescore replaced the stale entries in place: a second pass is
  // cached again, now under the new version.
  const std::vector<Prediction> rewarmed = engine.predict_batch(records);
  for (const Prediction& p : rewarmed) {
    EXPECT_TRUE(p.cached);
    EXPECT_EQ(p.model_version, 2u);
  }
}

TEST(EngineLifecycle, InitialModelVersionComesFromConfig) {
  EngineConfig config;
  config.initial_model_version = 41;
  InferenceEngine engine(model_a(), config);
  EXPECT_EQ(engine.model_version(), 41u);
  EXPECT_EQ(engine.swap_model(model_b()), 42u);
  EXPECT_EQ(engine.predict(lifecycle_dataset().record(3)).model_version, 42u);
}

TEST(EngineLifecycle, SwapRejectsShapeChange) {
  InferenceEngine engine(model_a());
  // A 9-class muffin (the fitzpatrick17k shape) cannot replace the
  // 8-class ISIC one: clients hold score vectors sized by the serving
  // shape, so the swap must fail atomically.
  const data::Dataset other = data::synthetic_fitzpatrick17k(200, 5);
  const models::ModelPool pool = models::calibrated_isic_pool(other);
  const auto nine_class = testutil::build_fused(pool, other, /*epochs=*/1);
  ASSERT_NE(nine_class->num_classes(), model_a()->num_classes());
  EXPECT_THROW((void)engine.swap_model(nine_class), Error);
  EXPECT_EQ(engine.model_version(), 1u);
}

TEST(EngineLifecycle, ReloadHeadArtifactInstallsStampedVersion) {
  const std::string path = testing::TempDir() + "/lifecycle_head.mufa";
  InferenceEngine engine(model_a());

  // Stamped artifact: the engine must install exactly that version.
  {
    data::ArtifactWriter writer;
    model_b()->head().save_artifact(writer, "head");
    writer.set_model_version(7);
    writer.write_file(path);
  }
  EXPECT_EQ(reload_head_artifact(engine, path), 7u);
  EXPECT_EQ(engine.model_version(), 7u);
  const data::Record& record = lifecycle_dataset().record(5);
  EXPECT_EQ(engine.predict(record).scores,
            testutil::canonical_scores(model_b()->scores(record)));

  // Re-applying the same stamp is a rollback: rejected, state unchanged.
  EXPECT_THROW((void)reload_head_artifact(engine, path), Error);
  EXPECT_EQ(engine.model_version(), 7u);

  // An unstamped artifact auto-assigns the next version.
  {
    data::ArtifactWriter writer;
    model_a()->head().save_artifact(writer, "head");
    writer.write_file(path);
  }
  EXPECT_EQ(reload_head_artifact(engine, path), 8u);
  EXPECT_EQ(engine.predict(record).scores,
            testutil::canonical_scores(model_a()->scores(record)));
  std::remove(path.c_str());
}

TEST(EngineLifecycle, SwapUnderLoadServesEveryReplyFromOneCleanVersion) {
  // The TSan centerpiece: clients hammer the engine while a publisher
  // rolls versions A/B/A/B... Every reply must be bit-identical to the
  // scores of the version it reports — no torn weight reads, no reply
  // blending two epochs, no stale memo leak across any swap.
  EngineConfig config;
  config.max_batch = 8;
  config.max_delay = std::chrono::microseconds(200);
  InferenceEngine engine(model_a(), config);
  std::span<const data::Record> records = lifecycle_dataset().records();

  // version -> the model published under it; entries are recorded
  // *before* the corresponding publish so readers can never see an
  // unknown version.
  std::mutex published_mutex;
  std::map<std::uint64_t, std::shared_ptr<const core::FusedModel>> published;
  published[1] = model_a();

  std::atomic<bool> rolling{true};
  std::thread publisher([&]() {
    std::uint64_t next = 2;
    while (rolling.load()) {
      const auto model = (next % 2 == 0) ? model_b() : model_a();
      {
        const std::lock_guard<std::mutex> lock(published_mutex);
        published[next] = model;
      }
      EXPECT_EQ(engine.swap_model(model), next);
      ++next;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 200;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t]() {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        // Hot overlapping uids: maximum memo pressure across swaps.
        const std::size_t r = (t * 13 + i * 3) % 96;
        const Prediction reply = engine.predict(records[r]);
        std::shared_ptr<const core::FusedModel> version_model;
        {
          const std::lock_guard<std::mutex> lock(published_mutex);
          const auto it = published.find(reply.model_version);
          if (it != published.end()) version_model = it->second;
        }
        if (version_model == nullptr ||
            reply.scores !=
                testutil::canonical_scores(version_model->scores(records[r]))) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  rolling.store(false);
  publisher.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(engine.swaps(), 0u);
  EXPECT_EQ(engine.metrics().counter_value("engine.requests"),
            kClients * kPerClient);
  // The engine still serves the final version correctly after the churn.
  const std::uint64_t final_version = engine.model_version();
  const Prediction last = engine.predict(records[200]);
  EXPECT_EQ(last.model_version, final_version);
}

}  // namespace
}  // namespace muffin::serve
