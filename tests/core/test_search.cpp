#include "core/search.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <set>
#include <string>

#include "common/error.h"
#include "counting_model.h"
#include "data/generators.h"
#include "tensor/quant.h"

namespace muffin::core {
namespace {

struct SearchFixture {
  data::Dataset full = data::synthetic_isic2019(6000, 111);
  data::Dataset train;
  data::Dataset eval;
  models::ModelPool pool;

  SearchFixture() : pool(models::calibrated_isic_pool(full)) {
    SplitRng rng(7);
    const data::SplitIndices split = full.split(0.64, 0.16, rng);
    train = full.subset(split.train, ":train");
    eval = full.subset(split.validation, ":val");
  }
};

SearchFixture& fixture() {
  static SearchFixture f;
  return f;
}

rl::SearchSpace small_space() {
  rl::SearchSpace space;
  space.pool_size = fixture().pool.size();
  space.paired_models = 2;
  space.max_hidden_layers = 2;
  return space;
}

MuffinSearchConfig small_config(std::size_t episodes = 12) {
  MuffinSearchConfig config;
  config.episodes = episodes;
  config.controller_batch = 4;
  config.reward.attributes = {"age", "site"};
  config.head_train.epochs = 5;
  config.proxy.max_samples = 1200;
  return config;
}

TEST(MuffinSearch, RunsAndRecordsEpisodes) {
  MuffinSearch search(fixture().pool, fixture().train, fixture().eval,
                      small_space(), small_config());
  const SearchResult result = search.run();
  EXPECT_EQ(result.episodes.size(), 12u);
  for (const EpisodeRecord& episode : result.episodes) {
    EXPECT_GT(episode.reward, 0.0);
    EXPECT_GT(episode.parameter_count, 0u);
    EXPECT_FALSE(episode.body_names.empty());
    EXPECT_EQ(episode.choice.model_indices.size(), 2u);
  }
}

TEST(MuffinSearch, BestIndexIsArgmaxReward) {
  MuffinSearch search(fixture().pool, fixture().train, fixture().eval,
                      small_space(), small_config());
  const SearchResult result = search.run();
  for (const EpisodeRecord& episode : result.episodes) {
    EXPECT_LE(episode.reward, result.best().reward);
  }
}

TEST(MuffinSearch, MemoizationGivesIdenticalRecords) {
  MuffinSearch search(fixture().pool, fixture().train, fixture().eval,
                      small_space(), small_config(24));
  const SearchResult result = search.run();
  // Find any two episodes with the same structure; their rewards must match
  // exactly (memo hit) even though they ran in different batches.
  for (std::size_t i = 0; i < result.episodes.size(); ++i) {
    for (std::size_t j = i + 1; j < result.episodes.size(); ++j) {
      if (result.episodes[i].choice.to_string() ==
          result.episodes[j].choice.to_string()) {
        EXPECT_DOUBLE_EQ(result.episodes[i].reward,
                         result.episodes[j].reward);
      }
    }
  }
}

TEST(MuffinSearch, OnEpisodeCallbackFires) {
  MuffinSearchConfig config = small_config();
  std::size_t calls = 0;
  config.on_episode = [&](std::size_t, const EpisodeRecord&) { ++calls; };
  MuffinSearch search(fixture().pool, fixture().train, fixture().eval,
                      small_space(), config);
  (void)search.run();
  EXPECT_EQ(calls, config.episodes);
}

TEST(MuffinSearch, EvaluateChoiceIsDeterministic) {
  MuffinSearch search(fixture().pool, fixture().train, fixture().eval,
                      small_space(), small_config());
  rl::StructureChoice choice;
  choice.model_indices = {1, 7};
  choice.hidden_dims = {16, 10};
  choice.activation = nn::Activation::Relu;
  const EpisodeRecord a = search.evaluate_choice(choice, 5);
  const EpisodeRecord b = search.evaluate_choice(choice, 5);
  EXPECT_DOUBLE_EQ(a.reward, b.reward);
  EXPECT_DOUBLE_EQ(a.eval_report.accuracy, b.eval_report.accuracy);
}

TEST(MuffinSearch, BuildFusedMatchesEvaluateChoice) {
  MuffinSearch search(fixture().pool, fixture().train, fixture().eval,
                      small_space(), small_config());
  rl::StructureChoice choice;
  choice.model_indices = {1, 5};
  choice.hidden_dims = {18, 12};
  choice.activation = nn::Activation::Relu;
  const EpisodeRecord record = search.evaluate_choice(choice, 3);
  const auto fused = search.build_fused(choice, "Muffin-Test", 3);
  const auto report = fairness::evaluate_model(*fused, fixture().eval);
  EXPECT_NEAR(report.accuracy, record.eval_report.accuracy, 1e-12);
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

bool same_report(const fairness::FairnessReport& a,
                 const fairness::FairnessReport& b) {
  if (std::bit_cast<std::uint64_t>(a.accuracy) !=
          std::bit_cast<std::uint64_t>(b.accuracy) ||
      a.attributes.size() != b.attributes.size()) {
    return false;
  }
  for (std::size_t k = 0; k < a.attributes.size(); ++k) {
    const fairness::AttributeFairness& x = a.attributes[k];
    const fairness::AttributeFairness& y = b.attributes[k];
    if (x.attribute != y.attribute || x.group_count != y.group_count ||
        !same_bits(x.group_accuracy, y.group_accuracy) ||
        std::bit_cast<std::uint64_t>(x.unfairness) !=
            std::bit_cast<std::uint64_t>(y.unfairness)) {
      return false;
    }
  }
  return true;
}

bool same_weights(nn::Mlp a, nn::Mlp b) {
  const std::vector<nn::ParamView> pa = a.params();
  const std::vector<nn::ParamView> pb = b.params();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (!same_bits(pa[i].value, pb[i].value)) return false;
  }
  return true;
}

// run() evaluates each controller batch on the shared pool. Oracle: the
// episode's choice evaluated alone, sequentially on this thread, with the
// seed of the index where the choice first appears (a repeat in a later
// batch is a memo hit).
TEST(MuffinSearch, ParallelAndSequentialAgree) {
  MuffinSearch search(fixture().pool, fixture().train, fixture().eval,
                      small_space(), small_config());
  const SearchResult result = search.run();
  std::set<std::string> seen;
  for (std::size_t i = 0; i < result.episodes.size(); ++i) {
    const EpisodeRecord& episode = result.episodes[i];
    if (!seen.insert(episode.choice.to_string()).second) continue;
    const EpisodeRecord sequential = search.evaluate_choice(episode.choice, i);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(episode.reward),
              std::bit_cast<std::uint64_t>(sequential.reward))
        << "episode " << i;
    EXPECT_TRUE(same_report(episode.eval_report, sequential.eval_report))
        << "episode " << i;
    EXPECT_EQ(episode.parameter_count, sequential.parameter_count)
        << "episode " << i;
  }
  EXPECT_GT(seen.size(), 1u);
}

// The search's train cache holds only the proxy rows. Oracle: an episode
// trained through an all-rows cache of the train split, on the same proxy,
// with the same seed. A row's f64 or bf16 scores do not depend on which
// other rows were scored, so both give the same bits. int8 searches differ
// by design: each class column's scale is taken over the rows a cache
// holds, so a proxy-rows cache quantizes on a different grid.
TEST(MuffinSearch, ProxyRowsTrainCacheMatchesAllRowsOracle) {
  const data::Dataset& train = fixture().train;
  const data::Dataset& eval = fixture().eval;
  const MuffinSearchConfig config = small_config();
  rl::StructureChoice choice;
  choice.model_indices = {2, 6};
  choice.hidden_dims = {16, 10};
  choice.activation = nn::Activation::Tanh;
  const std::uint64_t episode_seed = 9;
  for (const tensor::QuantMode mode :
       {tensor::QuantMode::Off, tensor::QuantMode::Bf16}) {
    const tensor::ScopedQuantMode scoped(mode);
    MuffinSearch search(fixture().pool, train, eval, small_space(), config);
    ScoreCache all_rows(fixture().pool, train);
    ASSERT_EQ(search.train_cache().quant_mode(), mode);

    const FusingStructure structure =
        FusingStructure::from_choice(choice, train.num_classes());
    HeadTrainConfig head_config = config.head_train;
    head_config.seed = SplitRng(config.seed)
                           .fork("episode:" + std::to_string(episode_seed))
                           .seed();
    const nn::Mlp head =
        train_head(all_rows, train, search.proxy(), structure, head_config);
    const fairness::FairnessReport report = fairness::evaluate_predictions(
        eval, fused_predictions(search.eval_cache(), structure, head,
                                config.head_only_on_disagreement));
    const double reward = multi_fairness_reward(report, config.reward);

    const EpisodeRecord record = search.evaluate_choice(choice, episode_seed);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(record.reward),
              std::bit_cast<std::uint64_t>(reward))
        << tensor::quant_mode_name(mode);
    EXPECT_TRUE(same_report(record.eval_report, report))
        << tensor::quant_mode_name(mode);
    const auto fused = search.build_fused(choice, "oracle", episode_seed);
    EXPECT_TRUE(same_weights(fused->head(), head))
        << tensor::quant_mode_name(mode);

    // The train cache drops the planes and predictions of every train row
    // outside the proxy and adds a 4-byte index entry per train row.
    all_rows.score_all();
    const std::size_t unread = train.size() - search.proxy().size();
    const std::size_t per_row = all_rows.footprint_bytes() / train.size();
    ASSERT_GT(unread, 0u);
    EXPECT_EQ(all_rows.footprint_bytes() - search.train_cache().footprint_bytes(),
              unread * per_row - 4 * train.size())
        << tensor::quant_mode_name(mode);
  }
}

// Every episode may read any model, so the constructor scores every
// column of both caches and run() scores none: search scoring stays in
// set-up, on the caller's thread, not in the episodes on pool workers.
TEST(MuffinSearch, ConstructorScoresEveryColumnAndRunScoresNone) {
  const tensor::ScopedQuantMode scoped(tensor::QuantMode::Off);
  CountingPool counting(fixture().pool);
  MuffinSearch search(counting.pool, fixture().train, fixture().eval,
                      small_space(), small_config());
  // Per f64 row: 10 planes of 8 scores and 10 prediction bytes; the train
  // cache holds the proxy rows plus a 4-byte index entry per train row.
  EXPECT_EQ(search.eval_cache().footprint_bytes(),
            650 * fixture().eval.size());
  EXPECT_EQ(search.train_cache().footprint_bytes(),
            650 * search.proxy().size() + 4 * fixture().train.size());
  const std::vector<int> after_setup = counting.calls();
  EXPECT_EQ(after_setup, std::vector<int>(fixture().pool.size(), 2));
  (void)search.run();
  EXPECT_EQ(counting.calls(), after_setup);
}

TEST(MuffinSearch, ForcedModelAppearsInEveryEpisode) {
  rl::SearchSpace space = small_space();
  space.forced_models = {fixture().pool.index_of("ShuffleNet_V2_X1_0")};
  MuffinSearch search(fixture().pool, fixture().train, fixture().eval, space,
                      small_config());
  const SearchResult result = search.run();
  for (const EpisodeRecord& episode : result.episodes) {
    EXPECT_EQ(episode.choice.model_indices[0],
              fixture().pool.index_of("ShuffleNet_V2_X1_0"));
  }
}

TEST(SearchResult, ParetoHelpersConsistent) {
  MuffinSearch search(fixture().pool, fixture().train, fixture().eval,
                      small_space(), small_config(20));
  const SearchResult result = search.run();
  const auto front = result.pareto_unfairness("age", "site");
  ASSERT_FALSE(front.empty());
  // No frontier episode may be dominated by any other episode.
  for (const std::size_t i : front) {
    for (std::size_t j = 0; j < result.episodes.size(); ++j) {
      if (i == j) continue;
      const bool dominates =
          result.episodes[j].eval_report.unfairness_for("age") <
              result.episodes[i].eval_report.unfairness_for("age") &&
          result.episodes[j].eval_report.unfairness_for("site") <
              result.episodes[i].eval_report.unfairness_for("site");
      EXPECT_FALSE(dominates);
    }
  }
  // best_for_attribute returns the global minimum.
  const std::size_t best_age = result.best_for_attribute("age");
  for (const EpisodeRecord& episode : result.episodes) {
    EXPECT_GE(episode.eval_report.unfairness_for("age"),
              result.episodes[best_age].eval_report.unfairness_for("age"));
  }
}

TEST(MuffinSearch, ConfigValidation) {
  MuffinSearchConfig config = small_config();
  config.reward.attributes = {};
  EXPECT_THROW(MuffinSearch(fixture().pool, fixture().train, fixture().eval,
                            small_space(), config),
               Error);

  config = small_config();
  config.episodes = 0;
  EXPECT_THROW(MuffinSearch(fixture().pool, fixture().train, fixture().eval,
                            small_space(), config),
               Error);

  rl::SearchSpace wrong_pool = small_space();
  wrong_pool.pool_size = 3;
  EXPECT_THROW(MuffinSearch(fixture().pool, fixture().train, fixture().eval,
                            wrong_pool, small_config()),
               Error);
}

}  // namespace
}  // namespace muffin::core
