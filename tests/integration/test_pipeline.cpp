// End-to-end pipeline tests: dataset -> split -> pool -> search -> fused
// model -> fairness reports, exercising the public API exactly the way the
// examples and benches do.
#include <gtest/gtest.h>

#include "core/search.h"
#include "data/generators.h"
#include "fairness/composition.h"
#include "fairness/metrics.h"
#include "models/pool.h"
#include "models/trainable.h"

namespace muffin {
namespace {

TEST(Pipeline, FullIsicFlowProducesConsistentReports) {
  data::Dataset full = data::synthetic_isic2019(5000, 121);
  SplitRng rng(1);
  const data::SplitIndices split = full.split(0.64, 0.16, rng);
  const data::Dataset train = full.subset(split.train, ":train");
  const data::Dataset val = full.subset(split.validation, ":val");
  const data::Dataset test = full.subset(split.test, ":test");
  EXPECT_NEAR(static_cast<double>(train.size()) / 5000.0, 0.64, 0.01);
  EXPECT_NEAR(static_cast<double>(test.size()) / 5000.0, 0.20, 0.01);

  const models::ModelPool pool = models::calibrated_isic_pool(full);

  rl::SearchSpace space;
  space.pool_size = pool.size();
  space.paired_models = 2;
  space.max_hidden_layers = 2;
  core::MuffinSearchConfig config;
  config.episodes = 8;
  config.controller_batch = 4;
  config.reward.attributes = {"age", "site"};
  config.head_train.epochs = 6;
  config.proxy.max_samples = 1500;

  core::MuffinSearch search(pool, train, val, space, config);
  const core::SearchResult result = search.run();
  const auto fused = search.build_fused(result.best().choice, "Muffin-Net");

  // The fused model must behave like any other Model on the test split.
  const auto report = fairness::evaluate_model(*fused, test);
  EXPECT_GT(report.accuracy, 0.5);
  EXPECT_EQ(report.attributes.size(), 3u);

  // Composition attribution of the fused system against its body pair.
  const auto preds = fused->predict_all(test);
  const auto attribution = fairness::fused_attribution(
      preds, *fused->body()[0], *fused->body()[1], test);
  EXPECT_NEAR(attribution.fused_accuracy(), report.accuracy, 1e-9);
}

TEST(Pipeline, FusedModelSurvivesHeadSerialization) {
  data::Dataset full = data::synthetic_isic2019(2500, 131);
  SplitRng rng(3);
  const data::SplitIndices split = full.split(0.64, 0.16, rng);
  const data::Dataset train = full.subset(split.train, ":train");
  const data::Dataset val = full.subset(split.validation, ":val");
  const models::ModelPool pool = models::calibrated_isic_pool(full);

  rl::SearchSpace space;
  space.pool_size = pool.size();
  space.paired_models = 2;
  space.max_hidden_layers = 2;
  core::MuffinSearchConfig config;
  config.episodes = 4;
  config.controller_batch = 2;
  config.reward.attributes = {"age", "site"};
  config.head_train.epochs = 4;
  config.proxy.max_samples = 800;
  core::MuffinSearch search(pool, train, val, space, config);
  const core::SearchResult result = search.run();
  const auto fused = search.build_fused(result.best().choice, "Muffin-Net");

  // Round-trip the trained head through a model artifact.
  data::ArtifactWriter writer;
  fused->head().save_artifact(writer, "head");
  nn::Mlp reloaded = nn::Mlp::from_artifact(
      data::Artifact::from_bytes(writer.bytes()), "head");
  std::vector<models::ModelPtr> body = fused->body();
  const core::FusedModel clone("Muffin-Clone", body, std::move(reloaded));

  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(clone.predict(val.record(i)), fused->predict(val.record(i)));
  }
}

TEST(Pipeline, UserProvidedTrainablePoolWorks) {
  // A user can assemble a pool from their own trained classifiers and run
  // the same search (the "custom model pool" example path).
  data::Dataset full = data::synthetic_isic2019(3000, 141);
  SplitRng rng(5);
  const data::SplitIndices split = full.split(0.64, 0.16, rng);
  const data::Dataset train = full.subset(split.train, ":train");
  const data::Dataset val = full.subset(split.validation, ":val");

  models::ModelPool pool;
  for (int k = 0; k < 3; ++k) {
    models::TrainableConfig config;
    config.seed = 100 + static_cast<std::uint64_t>(k);
    config.epochs = 8;
    config.hidden_dims = {24u + 8u * static_cast<std::size_t>(k)};
    auto model = std::make_shared<models::TrainableClassifier>(
        "user-model-" + std::to_string(k), train, config);
    model->fit(train);
    pool.add(model);
  }

  rl::SearchSpace space;
  space.pool_size = pool.size();
  space.paired_models = 2;
  space.max_hidden_layers = 1;
  core::MuffinSearchConfig config;
  config.episodes = 4;
  config.controller_batch = 2;
  config.reward.attributes = {"age", "site"};
  config.head_train.epochs = 5;
  config.proxy.max_samples = 800;
  core::MuffinSearch search(pool, train, val, space, config);
  const core::SearchResult result = search.run();
  EXPECT_EQ(result.episodes.size(), 4u);
  EXPECT_GT(result.best().reward, 0.0);
}

TEST(Pipeline, RewardOnValSplitCorrelatesWithTestSplit) {
  // The search optimizes validation rewards; sanity-check that validation
  // and test unfairness move together rather than being decoupled.
  data::Dataset full = data::synthetic_isic2019(16000, 151);
  SplitRng rng(7);
  const data::SplitIndices split = full.split(0.64, 0.16, rng);
  const data::Dataset train = full.subset(split.train, ":train");
  const data::Dataset val = full.subset(split.validation, ":val");
  const data::Dataset test = full.subset(split.test, ":test");
  const models::ModelPool pool = models::calibrated_isic_pool(full);

  std::vector<double> val_u, test_u;
  for (std::size_t m = 0; m < pool.size(); ++m) {
    val_u.push_back(fairness::evaluate_model(pool.at(m), val)
                        .overall_unfairness(std::vector<std::string>{
                            "age", "site"}));
    test_u.push_back(fairness::evaluate_model(pool.at(m), test)
                         .overall_unfairness(std::vector<std::string>{
                             "age", "site"}));
  }
  EXPECT_GT(pearson(val_u, test_u), 0.3);
}

}  // namespace
}  // namespace muffin
