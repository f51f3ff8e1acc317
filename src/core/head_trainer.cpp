#include "core/head_trainer.h"

#include "common/error.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"

namespace muffin::core {

nn::TrainingSet head_training_set(const ScoreCache& cache,
                                  const data::Dataset& dataset,
                                  const ProxyDataset& proxy,
                                  const FusingStructure& structure) {
  MUFFIN_REQUIRE(cache.num_records() == dataset.size(),
                 "cache must cover the dataset");
  MUFFIN_REQUIRE(proxy.source_size == dataset.size(),
                 "proxy must be built from this dataset");
  MUFFIN_REQUIRE(proxy.size() > 0, "proxy dataset is empty");
  const std::size_t width =
      structure.model_indices.size() * cache.num_classes();
  MUFFIN_REQUIRE(structure.head_spec.input_dim == width,
                 "head spec width must match the structure");

  nn::TrainingSet set;
  set.num_classes = cache.num_classes();
  set.features.resize(proxy.size(), width);
  set.labels.resize(proxy.size());
  set.weights.resize(proxy.size());
  for (std::size_t k = 0; k < proxy.size(); ++k) {
    const std::size_t i = proxy.indices[k];
    cache.gather(structure.model_indices, i, set.features.row(k));
    set.labels[k] = dataset.record(i).label;
    set.weights[k] = proxy.weights[k];
  }
  return set;
}

nn::Mlp train_head(const ScoreCache& cache, const data::Dataset& dataset,
                   const ProxyDataset& proxy, const FusingStructure& structure,
                   const HeadTrainConfig& config) {
  const nn::TrainingSet set =
      head_training_set(cache, dataset, proxy, structure);
  nn::Mlp head(structure.head_spec);
  SplitRng rng(config.seed);
  SplitRng init_rng = rng.fork("head-init");
  head.init(init_rng);

  nn::WeightedMse loss;  // Eq. 2
  nn::Adam optimizer(nn::AdamConfig{.learning_rate = config.learning_rate});
  nn::TrainerConfig trainer;
  trainer.epochs = config.epochs;
  trainer.batch_size = config.batch_size;
  SplitRng shuffle_rng = rng.fork("head-shuffle");
  nn::train(head, set, loss, optimizer, trainer, shuffle_rng);
  // A copy keeps the weights and leaves the training workspace behind, so
  // a served or evaluated head does not hold minibatch-sized buffers.
  return nn::Mlp(head);
}

}  // namespace muffin::core
