// Ablation tests backing the calibrated pool's design decisions
// (models::CalibrationConfig, models/calibrated.h): the miscalibration
// knobs bound head recovery, the fused system respects the union bound,
// and REINFORCE moves probability mass as advertised.
#include <gtest/gtest.h>

#include "core/search.h"
#include "data/generators.h"
#include "fairness/composition.h"
#include "fairness/metrics.h"
#include "models/pool.h"

namespace muffin {
namespace {

/// Head recovery for a fixed ShuffleNet+ResNet-18 structure under a given
/// calibration config: fraction of *disagreement* records the fused system
/// classifies correctly.
double disagreement_recovery(const models::CalibrationConfig& calibration) {
  const data::Dataset full = data::synthetic_isic2019(6000, 161);
  SplitRng rng(1);
  const data::SplitIndices split = full.split(0.64, 0.16, rng);
  const data::Dataset train = full.subset(split.train, ":train");
  const data::Dataset val = full.subset(split.validation, ":val");
  const models::ModelPool pool = models::calibrated_isic_pool(full, calibration);

  rl::SearchSpace space;
  space.pool_size = pool.size();
  space.paired_models = 2;
  core::MuffinSearchConfig config;
  config.episodes = 1;
  config.reward.attributes = {"age", "site"};
  config.head_train.epochs = 12;
  config.proxy.max_samples = 2500;
  core::MuffinSearch search(pool, train, val, space, config);

  rl::StructureChoice choice;
  choice.model_indices = {pool.index_of("ShuffleNet_V2_X1_0"),
                          pool.index_of("ResNet-18")};
  choice.hidden_dims = {16, 12};
  choice.activation = nn::Activation::Relu;
  const auto fused = search.build_fused(choice, "Muffin-Ablate");

  const models::Model& a = pool.by_name("ShuffleNet_V2_X1_0");
  const models::Model& b = pool.by_name("ResNet-18");
  std::size_t disagreements = 0;
  std::size_t recovered = 0;
  for (std::size_t i = 0; i < val.size(); ++i) {
    const data::Record& record = val.record(i);
    if (a.predict(record) == b.predict(record)) continue;
    ++disagreements;
    if (fused->predict(record) == record.label) ++recovered;
  }
  EXPECT_GT(disagreements, 100u);
  return static_cast<double>(recovered) / static_cast<double>(disagreements);
}

TEST(Ablation, MiscalibrationBoundsHeadRecovery) {
  // With perfectly calibrated confidence (no overconfident errors, no
  // hesitant successes, true label always runner-up), the head recovers far
  // more of the disagreement set than with the default realistic knobs.
  models::CalibrationConfig ideal;
  ideal.overconfident_rate = 0.0;
  ideal.hesitant_rate = 0.0;
  ideal.runner_up_rate = 1.0;
  ideal.logit_noise = 0.2;

  const double ideal_recovery = disagreement_recovery(ideal);
  const double realistic_recovery =
      disagreement_recovery(models::CalibrationConfig{});
  EXPECT_GT(ideal_recovery, realistic_recovery + 0.10);
  EXPECT_GT(realistic_recovery, 0.35);  // still clearly above chance (1/8)
}

TEST(Ablation, FusedAccuracyRespectsUnionBoundOnDisagreementPolicy) {
  // With the consensus gate, the fused system can only fix records where
  // the body disagrees; its accuracy is bounded by
  //   P(consensus correct) + P(disagreement) (union-ish bound).
  const data::Dataset full = data::synthetic_isic2019(6000, 171);
  SplitRng rng(3);
  const data::SplitIndices split = full.split(0.64, 0.16, rng);
  const data::Dataset train = full.subset(split.train, ":train");
  const data::Dataset val = full.subset(split.validation, ":val");
  const models::ModelPool pool = models::calibrated_isic_pool(full);

  rl::SearchSpace space;
  space.pool_size = pool.size();
  space.paired_models = 2;
  core::MuffinSearchConfig config;
  config.episodes = 1;
  config.reward.attributes = {"age", "site"};
  config.head_train.epochs = 10;
  config.proxy.max_samples = 2000;
  core::MuffinSearch search(pool, train, val, space, config);

  rl::StructureChoice choice;
  choice.model_indices = {pool.index_of("DenseNet121"),
                          pool.index_of("ResNet-18")};
  choice.hidden_dims = {18, 12};
  choice.activation = nn::Activation::Relu;
  const auto fused = search.build_fused(choice, "Muffin-Bound");

  const models::Model& a = pool.at(choice.model_indices[0]);
  const models::Model& b = pool.at(choice.model_indices[1]);
  double consensus_correct = 0.0;
  double disagreement = 0.0;
  for (std::size_t i = 0; i < val.size(); ++i) {
    const data::Record& record = val.record(i);
    const std::size_t pa = a.predict(record);
    if (pa == b.predict(record)) {
      if (pa == record.label) consensus_correct += 1.0;
    } else {
      disagreement += 1.0;
    }
  }
  const double n = static_cast<double>(val.size());
  const double bound = (consensus_correct + disagreement) / n;
  const double fused_acc =
      fairness::evaluate_model(*fused, val).accuracy;
  EXPECT_LE(fused_acc, bound + 1e-9);
  // And it must actually exploit the disagreement headroom.
  EXPECT_GT(fused_acc, consensus_correct / n + 0.02);
}

TEST(Ablation, ReinforceIncreasesLogProbOfRewardedSequence) {
  // Single-sequence REINFORCE property: updating with a positive advantage
  // on one episode must increase that episode's log-probability.
  rl::SearchSpace space;
  space.pool_size = 5;
  space.paired_models = 2;
  rl::ControllerConfig config;
  config.seed = 9;
  config.baseline_decay = 1.0;  // baseline == batch mean
  rl::RnnController controller(space, config);
  SplitRng rng(2);

  const rl::SampledStructure good = controller.sample(rng);
  rl::SampledStructure other = controller.sample(rng);
  while (other.tokens == good.tokens) other = controller.sample(rng);

  const double before = controller.log_prob(good.tokens);
  // Batch: good sequence rewarded above the mean, other below.
  std::vector<rl::EpisodeResult> episodes = {{good.tokens, 2.0},
                                             {other.tokens, 0.0}};
  for (int i = 0; i < 5; ++i) controller.update(episodes);
  const double after = controller.log_prob(good.tokens);
  EXPECT_GT(after, before);
}

TEST(Ablation, FamilyRhoReducesCrossFamilyAdvantageOfSameFamilyPairs) {
  // The union accuracy of a same-family pair must trail a cross-family
  // pair of comparable strength — the motivation for the family factor.
  const data::Dataset full = data::synthetic_isic2019(8000, 181);
  const models::ModelPool pool = models::calibrated_isic_pool(full);
  const auto comp_same = fairness::joint_composition(
      pool.by_name("ResNet-18"), pool.by_name("ResNet-34"), full);
  const auto comp_cross = fairness::joint_composition(
      pool.by_name("ResNet-18"), pool.by_name("DenseNet201"), full);
  // Marginal accuracies are close (0.8128/0.8145 vs 0.8128/0.8190), so the
  // comparison isolates the correlation structure.
  EXPECT_LT(comp_same.disagreement(), comp_cross.disagreement() + 0.02);
}

}  // namespace
}  // namespace muffin
