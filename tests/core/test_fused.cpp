#include "core/fused.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/parallel_for.h"
#include "core/head_trainer.h"
#include "data/generators.h"
#include "obs/metrics.h"
#include "tensor/ops.h"

namespace muffin::core {
namespace {

const data::Dataset& fused_dataset() {
  static const data::Dataset ds = data::synthetic_isic2019(3000, 91);
  return ds;
}

const models::ModelPool& fused_pool() {
  static const models::ModelPool pool =
      models::calibrated_isic_pool(fused_dataset());
  return pool;
}

rl::StructureChoice default_choice() {
  rl::StructureChoice choice;
  choice.model_indices = {fused_pool().index_of("ShuffleNet_V2_X1_0"),
                          fused_pool().index_of("DenseNet121")};
  choice.hidden_dims = {18, 12};
  choice.activation = nn::Activation::Relu;
  return choice;
}

TEST(FusingStructure, FromChoiceBuildsPaperSpec) {
  const FusingStructure structure =
      FusingStructure::from_choice(default_choice(), 8);
  EXPECT_EQ(structure.head_spec.input_dim, 16u);  // 2 models x 8 classes
  EXPECT_EQ(structure.head_spec.output_dim, 8u);
  EXPECT_EQ(structure.head_spec.to_string(), "[16,18,12,8]");  // Table I
}

TEST(FusingStructure, RejectsEmptyBody) {
  rl::StructureChoice empty;
  EXPECT_THROW((void)FusingStructure::from_choice(empty, 8), Error);
}

nn::Mlp trained_head(const FusingStructure& structure) {
  static const ScoreCache cache(fused_pool(), fused_dataset());
  static const ProxyDataset proxy = build_proxy(fused_dataset());
  HeadTrainConfig config;
  config.epochs = 8;
  return train_head(cache, fused_dataset(), proxy, structure, config);
}

TEST(FusedModel, ConstructionValidation) {
  const FusingStructure structure =
      FusingStructure::from_choice(default_choice(), 8);
  nn::Mlp head = trained_head(structure);

  // Body/head width mismatch must throw.
  std::vector<models::ModelPtr> one_model = {fused_pool().share(0)};
  EXPECT_THROW(FusedModel("bad", one_model, trained_head(structure)), Error);

  std::vector<models::ModelPtr> body = {
      fused_pool().share(default_choice().model_indices[0]),
      fused_pool().share(default_choice().model_indices[1])};
  EXPECT_NO_THROW(FusedModel("ok", body, std::move(head)));
}

TEST(FusedModel, ScoresAreDistributions) {
  const FusingStructure structure =
      FusingStructure::from_choice(default_choice(), 8);
  std::vector<models::ModelPtr> body = {
      fused_pool().share(default_choice().model_indices[0]),
      fused_pool().share(default_choice().model_indices[1])};
  const FusedModel fused("Muffin", body, trained_head(structure));
  for (std::size_t i = 0; i < 100; ++i) {
    const tensor::Vector s = fused.scores(fused_dataset().record(i));
    EXPECT_NEAR(tensor::sum(s), 1.0, 1e-9);
    for (const double p : s) EXPECT_GE(p, 0.0);
  }
}

// score_batch splits no records itself: from a thread outside the pool,
// each calibrated body's score_batch splits its rows once (parallel_for's
// pool path counts parallel_for.calls), and nothing nests under it.
TEST(FusedModel, ScoreBatchSplitsOncePerCalibratedBody) {
  if (common::global_pool_size() < 2 || !obs::compiled_in()) {
    GTEST_SKIP() << "needs a pool of two or more workers and metrics";
  }
  const FusingStructure structure =
      FusingStructure::from_choice(default_choice(), 8);
  std::vector<models::ModelPtr> body = {
      fused_pool().share(default_choice().model_indices[0]),
      fused_pool().share(default_choice().model_indices[1])};
  const FusedModel fused("Muffin", body, trained_head(structure));
  const std::span<const data::Record> records =
      std::span<const data::Record>(fused_dataset().records()).first(512);

  const obs::Counter& calls = obs::registry().counter("parallel_for.calls");
  const std::uint64_t before = calls.value();
  const tensor::Matrix scores = fused.score_batch(records);
  EXPECT_EQ(calls.value() - before, body.size());
  EXPECT_EQ(scores.rows(), records.size());
}

TEST(FusedModel, ConsensusPreserved) {
  // When all body models agree, the fused system must return the consensus
  // class (§3.2: output unchanged under consensus).
  const FusingStructure structure =
      FusingStructure::from_choice(default_choice(), 8);
  std::vector<models::ModelPtr> body = {
      fused_pool().share(default_choice().model_indices[0]),
      fused_pool().share(default_choice().model_indices[1])};
  const FusedModel fused("Muffin", body, trained_head(structure));
  std::size_t consensus_checked = 0;
  for (std::size_t i = 0; i < 500; ++i) {
    const data::Record& r = fused_dataset().record(i);
    const std::size_t pa = body[0]->predict(r);
    const std::size_t pb = body[1]->predict(r);
    if (pa == pb) {
      EXPECT_EQ(fused.predict(r), pa) << "record " << i;
      ++consensus_checked;
    }
  }
  EXPECT_GT(consensus_checked, 100u);
}

TEST(FusedModel, ParameterCountSumsBodyAndHead) {
  const FusingStructure structure =
      FusingStructure::from_choice(default_choice(), 8);
  std::vector<models::ModelPtr> body = {
      fused_pool().share(default_choice().model_indices[0]),
      fused_pool().share(default_choice().model_indices[1])};
  const FusedModel fused("Muffin", body, trained_head(structure));
  EXPECT_EQ(fused.parameter_count(),
            body[0]->parameter_count() + body[1]->parameter_count() +
                structure.head_spec.parameter_count());
  EXPECT_EQ(fused.head_parameter_count(),
            structure.head_spec.parameter_count());
}

TEST(FusedPredictions, CacheAndModelPathsAgree) {
  const FusingStructure structure =
      FusingStructure::from_choice(default_choice(), 8);
  // Exact agreement needs float cache planes: the slow path scores the
  // body models directly, so a quantized cache would feed the head
  // slightly different inputs. Quantized-cache parity (argmax threshold,
  // not exact) is covered by the ScoreCacheQuant suite.
  const ScoreCache cache(fused_pool(), fused_dataset(),
                         tensor::QuantMode::Off);
  const ProxyDataset proxy = build_proxy(fused_dataset());
  HeadTrainConfig config;
  config.epochs = 8;
  nn::Mlp head = train_head(cache, fused_dataset(), proxy, structure, config);

  // Fast cached path.
  nn::Mlp head_copy = head;
  const std::vector<std::size_t> fast =
      fused_predictions(cache, structure, head_copy);

  // Slow per-record path through the FusedModel interface.
  std::vector<models::ModelPtr> body = {
      fused_pool().share(structure.model_indices[0]),
      fused_pool().share(structure.model_indices[1])};
  const FusedModel fused("Muffin", body, std::move(head));
  const std::vector<std::size_t> slow = fused.predict_all(fused_dataset());

  EXPECT_EQ(fast, slow);
}

TEST(FusedPredictions, HeadEverywhereDiffersFromConsensusGate) {
  const FusingStructure structure =
      FusingStructure::from_choice(default_choice(), 8);
  const ScoreCache cache(fused_pool(), fused_dataset());
  const ProxyDataset proxy = build_proxy(fused_dataset());
  HeadTrainConfig config;
  config.epochs = 8;
  nn::Mlp head = train_head(cache, fused_dataset(), proxy, structure, config);
  nn::Mlp head_copy = head;
  const auto gated = fused_predictions(cache, structure, head, true);
  const auto everywhere = fused_predictions(cache, structure, head_copy,
                                            false);
  // The two policies must agree on disagreement records but may differ on
  // consensus records; overall they should not be identical in general.
  EXPECT_EQ(gated.size(), everywhere.size());
}

TEST(FusedPredictions, RejectsMismatchedHead) {
  const ScoreCache cache(fused_pool(), fused_dataset());
  FusingStructure structure =
      FusingStructure::from_choice(default_choice(), 8);
  nn::MlpSpec wrong = structure.head_spec;
  wrong.input_dim = 24;  // three-model head for a two-model structure
  nn::Mlp head(wrong);
  EXPECT_THROW((void)fused_predictions(cache, structure, head), Error);
}

}  // namespace
}  // namespace muffin::core
