// Muffin search driver — the iterative loop of Fig. 4.
//
// Per episode: ➀ the RNN controller samples a model-fusing structure,
// ➁ the head is trained on the fairness proxy dataset (Eq. 2 weights),
// ➂ the fused system is evaluated on the evaluation split and scored with
// the multi-fairness reward (Eq. 3), ➃ the controller is updated with
// REINFORCE (Eq. 4) every `controller_batch` episodes.
//
// Deviations from the paper, documented: the search evaluates rewards on a
// held-out *validation* split (the paper says "the original dataset");
// final reporting in the benches is on the untouched test split. Episodes
// within one controller batch are evaluated in parallel on the shared
// process-wide worker pool (common::global_pool(), also used by the
// serving engine; MUFFIN_THREADS=1 makes it serial) — structure
// evaluation is embarrassingly parallel and all shared state (score
// caches, proxy) is read-only. Results are
// bit-identical to the sequential loop because every episode derives its
// seed from its index.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "core/fused.h"
#include "core/head_trainer.h"
#include "core/proxy.h"
#include "core/reward.h"
#include "core/score_cache.h"
#include "fairness/pareto.h"
#include "rl/controller.h"

namespace muffin::core {

struct MuffinSearchConfig {
  std::size_t episodes = 500;         ///< paper setting
  std::size_t controller_batch = 5;   ///< m in Eq. 4
  rl::ControllerConfig controller;
  HeadTrainConfig head_train;
  RewardConfig reward;
  ProxyConfig proxy;
  bool head_only_on_disagreement = true;
  std::uint64_t seed = 123;
  /// Progress callback: (episode index, record).
  std::function<void(std::size_t, const struct EpisodeRecord&)> on_episode;
};

/// Everything known about one evaluated structure.
struct EpisodeRecord {
  rl::StructureChoice choice;
  std::vector<std::size_t> tokens;
  double reward = 0.0;
  fairness::FairnessReport eval_report;  ///< on the evaluation split
  std::size_t parameter_count = 0;       ///< body + head
  std::string body_names;                ///< human-readable body list
};

struct SearchResult {
  std::vector<EpisodeRecord> episodes;
  std::size_t best_index = 0;

  [[nodiscard]] const EpisodeRecord& best() const;
  /// Indices of episodes on the Pareto front minimizing the unfairness of
  /// the two given attributes (Fig. 5a / Fig. 7a).
  [[nodiscard]] std::vector<std::size_t> pareto_unfairness(
      const std::string& first_attribute,
      const std::string& second_attribute) const;
  /// Indices on the (maximize accuracy, minimize ΣU) front (Fig. 5b).
  [[nodiscard]] std::vector<std::size_t> pareto_accuracy(
      std::span<const std::string> attributes) const;
  /// Episode with the lowest unfairness on one attribute ("Muffin-Age").
  [[nodiscard]] std::size_t best_for_attribute(
      const std::string& attribute) const;
};

class MuffinSearch {
 public:
  /// `train` supplies the proxy dataset; `eval` supplies rewards. Both must
  /// share the pool's schema and class count.
  MuffinSearch(const models::ModelPool& pool, const data::Dataset& train,
               const data::Dataset& eval, rl::SearchSpace space,
               MuffinSearchConfig config);

  /// Run the full RL search.
  SearchResult run();

  /// Train + evaluate one fixed structure (no controller involved); used
  /// by the benches that study specific pairings and by Fig. 9 ablations.
  [[nodiscard]] EpisodeRecord evaluate_choice(const rl::StructureChoice& choice,
                                              std::uint64_t episode_seed = 0);

  /// Materialize a fused model (with a freshly trained head) for a choice.
  [[nodiscard]] std::shared_ptr<FusedModel> build_fused(
      const rl::StructureChoice& choice, const std::string& name,
      std::uint64_t episode_seed = 0) const;

  [[nodiscard]] const ProxyDataset& proxy() const { return proxy_; }
  /// A row-subset cache of the train split: it holds only the rows in
  /// proxy().indices (the only ones head training reads) and throws on
  /// any other train row.
  [[nodiscard]] const ScoreCache& train_cache() const { return train_cache_; }
  [[nodiscard]] const ScoreCache& eval_cache() const { return eval_cache_; }

 private:
  [[nodiscard]] EpisodeRecord evaluate_internal(
      const rl::StructureChoice& choice, std::uint64_t episode_seed) const;

  const models::ModelPool& pool_;
  const data::Dataset& train_;
  const data::Dataset& eval_;
  rl::SearchSpace space_;
  MuffinSearchConfig config_;
  /// Declared before train_cache_, which is built over its rows.
  ProxyDataset proxy_;
  ScoreCache train_cache_;
  ScoreCache eval_cache_;
  /// Group structure of the eval split, computed once and shared by every
  /// episode's fairness report (candidate structures change predictions,
  /// never group membership).
  fairness::GroupPartition eval_partition_;
  rl::RnnController controller_;
  /// Memo of evaluated structures (keyed by choice string): identical
  /// structures resample the same trained head, so repeat episodes are free.
  std::map<std::string, EpisodeRecord> memo_;
};

}  // namespace muffin::core
