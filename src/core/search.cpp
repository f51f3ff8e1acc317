#include "core/search.h"

#include <algorithm>
#include <future>
#include <sstream>

#include "common/error.h"
#include "common/log.h"
#include "common/parallel_for.h"

namespace muffin::core {

const EpisodeRecord& SearchResult::best() const {
  MUFFIN_REQUIRE(!episodes.empty(), "search produced no episodes");
  return episodes[best_index];
}

std::vector<std::size_t> SearchResult::pareto_unfairness(
    const std::string& first_attribute,
    const std::string& second_attribute) const {
  std::vector<fairness::ParetoPoint> points;
  points.reserve(episodes.size());
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    points.push_back(
        {{episodes[i].eval_report.unfairness_for(first_attribute),
          episodes[i].eval_report.unfairness_for(second_attribute)},
         i});
  }
  const fairness::Direction dirs[] = {fairness::Direction::Minimize,
                                      fairness::Direction::Minimize};
  return fairness::pareto_front(points, dirs);
}

std::vector<std::size_t> SearchResult::pareto_accuracy(
    std::span<const std::string> attributes) const {
  std::vector<fairness::ParetoPoint> points;
  points.reserve(episodes.size());
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    points.push_back({{episodes[i].eval_report.accuracy,
                       episodes[i].eval_report.overall_unfairness(attributes)},
                      i});
  }
  const fairness::Direction dirs[] = {fairness::Direction::Maximize,
                                      fairness::Direction::Minimize};
  return fairness::pareto_front(points, dirs);
}

std::size_t SearchResult::best_for_attribute(
    const std::string& attribute) const {
  MUFFIN_REQUIRE(!episodes.empty(), "search produced no episodes");
  std::size_t best = 0;
  double best_u = episodes[0].eval_report.unfairness_for(attribute);
  for (std::size_t i = 1; i < episodes.size(); ++i) {
    const double u = episodes[i].eval_report.unfairness_for(attribute);
    if (u < best_u) {
      best_u = u;
      best = i;
    }
  }
  return best;
}

MuffinSearch::MuffinSearch(const models::ModelPool& pool,
                           const data::Dataset& train,
                           const data::Dataset& eval, rl::SearchSpace space,
                           MuffinSearchConfig config)
    : pool_(pool),
      train_(train),
      eval_(eval),
      space_(std::move(space)),
      config_(std::move(config)),
      proxy_(build_proxy(train, config_.proxy)),
      train_cache_(pool, train, proxy_.indices),
      eval_cache_(pool, eval),
      eval_partition_(eval),
      controller_(space_, config_.controller) {
  MUFFIN_REQUIRE(space_.pool_size == pool.size(),
                 "search space pool size must match the pool");
  MUFFIN_REQUIRE(train.num_classes() == eval.num_classes(),
                 "train/eval class counts must match");
  MUFFIN_REQUIRE(!config_.reward.attributes.empty(),
                 "configure the unfair attributes for the reward");
  MUFFIN_REQUIRE(config_.episodes > 0, "need at least one episode");
  MUFFIN_REQUIRE(config_.controller_batch > 0,
                 "controller batch must be positive");
  // Every episode may read any model, so score every column now: the cost
  // stays in set-up and the row split runs from this thread, not from the
  // pool workers that run the episodes.
  train_cache_.score_all();
  eval_cache_.score_all();
}

EpisodeRecord MuffinSearch::evaluate_internal(
    const rl::StructureChoice& choice, std::uint64_t episode_seed) const {
  FusingStructure structure =
      FusingStructure::from_choice(choice, train_.num_classes());
  HeadTrainConfig head_config = config_.head_train;
  head_config.seed = SplitRng(config_.seed)
                         .fork("episode:" + std::to_string(episode_seed))
                         .seed();
  nn::Mlp head =
      train_head(train_cache_, train_, proxy_, structure, head_config);

  const std::vector<std::size_t> predictions = fused_predictions(
      eval_cache_, structure, head, config_.head_only_on_disagreement);

  EpisodeRecord record;
  record.choice = choice;
  // Precomputed group partition: episodes only change predictions, so the
  // report accumulates over flat label/group arrays (bit-identical to
  // evaluate_predictions(eval_, ...), pinned by the fairness tests).
  record.eval_report =
      fairness::evaluate_predictions(eval_partition_, predictions);
  record.reward = multi_fairness_reward(record.eval_report, config_.reward);
  record.parameter_count = structure.head_spec.parameter_count();
  std::ostringstream names;
  for (std::size_t i = 0; i < choice.model_indices.size(); ++i) {
    const models::Model& model = pool_.at(choice.model_indices[i]);
    record.parameter_count += model.parameter_count();
    names << (i ? "+" : "") << model.name();
  }
  record.body_names = names.str();
  return record;
}

EpisodeRecord MuffinSearch::evaluate_choice(const rl::StructureChoice& choice,
                                            std::uint64_t episode_seed) {
  return evaluate_internal(choice, episode_seed);
}

std::shared_ptr<FusedModel> MuffinSearch::build_fused(
    const rl::StructureChoice& choice, const std::string& name,
    std::uint64_t episode_seed) const {
  FusingStructure structure =
      FusingStructure::from_choice(choice, train_.num_classes());
  HeadTrainConfig head_config = config_.head_train;
  head_config.seed = SplitRng(config_.seed)
                         .fork("episode:" + std::to_string(episode_seed))
                         .seed();
  nn::Mlp head =
      train_head(train_cache_, train_, proxy_, structure, head_config);
  std::vector<models::ModelPtr> body;
  body.reserve(choice.model_indices.size());
  for (const std::size_t m : choice.model_indices) {
    body.push_back(pool_.share(m));
  }
  return std::make_shared<FusedModel>(name, std::move(body), std::move(head),
                                      config_.head_only_on_disagreement);
}

SearchResult MuffinSearch::run() {
  SearchResult result;
  result.episodes.reserve(config_.episodes);
  SplitRng sample_rng = SplitRng(config_.seed).fork("controller-sampling");

  // Controller batches evaluate on the process-wide shared pool — the
  // same one the serving engine uses — so a search running next to a
  // serving tier queues work instead of spawning competing threads.
  // MUFFIN_THREADS=1 makes the evaluation serial.
  common::ThreadPool& pool = common::global_pool();

  std::size_t episode = 0;
  while (episode < config_.episodes) {
    const std::size_t batch =
        std::min(config_.controller_batch, config_.episodes - episode);

    // ➀ sample a batch of structures from the current policy.
    std::vector<rl::SampledStructure> sampled;
    sampled.reserve(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      sampled.push_back(controller_.sample(sample_rng));
    }

    // ➁+➂ train heads and evaluate (parallel across the batch; memoized
    // structures are reused directly).
    std::vector<EpisodeRecord> records(batch);
    std::vector<std::future<EpisodeRecord>> futures(batch);
    std::vector<bool> from_memo(batch, false);
    try {
      for (std::size_t b = 0; b < batch; ++b) {
        const std::string key = sampled[b].choice.to_string();
        const auto it = memo_.find(key);
        if (it != memo_.end()) {
          records[b] = it->second;
          records[b].tokens = sampled[b].tokens;
          from_memo[b] = true;
          continue;
        }
        const std::uint64_t episode_seed = episode + b;
        futures[b] = pool.submit([this, &sampled, b, episode_seed]() {
          return evaluate_internal(sampled[b].choice, episode_seed);
        });
      }
      for (std::size_t b = 0; b < batch; ++b) {
        if (from_memo[b]) continue;
        records[b] = futures[b].get();
        records[b].tokens = sampled[b].tokens;
      }
    } catch (...) {
      // Pool futures do not block on destruction (std::async's did), so an
      // episode failure must not unwind this scope while other jobs still
      // reference `sampled` and friends; wait() never throws.
      for (std::future<EpisodeRecord>& future : futures) {
        if (future.valid()) future.wait();
      }
      throw;
    }

    // ➃ controller update with the batch rewards.
    std::vector<rl::EpisodeResult> feedback;
    feedback.reserve(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      feedback.push_back({sampled[b].tokens, records[b].reward});
      memo_.insert({sampled[b].choice.to_string(), records[b]});
    }
    const rl::UpdateStats stats = controller_.update(feedback);
    MUFFIN_LOG_DEBUG << "episodes " << episode << ".." << episode + batch - 1
                     << " mean reward " << stats.mean_reward << " baseline "
                     << stats.baseline;

    for (std::size_t b = 0; b < batch; ++b) {
      result.episodes.push_back(std::move(records[b]));
      const std::size_t idx = result.episodes.size() - 1;
      if (result.episodes[idx].reward >
          result.episodes[result.best_index].reward) {
        result.best_index = idx;
      }
      if (config_.on_episode) {
        config_.on_episode(episode + b, result.episodes[idx]);
      }
    }
    episode += batch;
  }
  return result;
}

}  // namespace muffin::core
