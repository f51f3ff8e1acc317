// Bring-your-own models: plugging user classifiers into Muffin.
//
// The framework only requires models::Model (name / num_classes /
// parameter_count / scores). This example trains three real MLP
// classifiers with different capacities on the synthetic features, puts
// them in a pool next to two calibrated zoo models, runs a Muffin search,
// and round-trips the winning head through a model artifact.
#include <iostream>

#include "core/search.h"
#include "data/generators.h"
#include "fairness/metrics.h"
#include "models/pool.h"
#include "models/trainable.h"

using namespace muffin;

int main() {
  data::Dataset full = data::synthetic_isic2019(8000);
  SplitRng rng(23);
  const data::SplitIndices split = full.split(0.64, 0.16, rng);
  const data::Dataset train = full.subset(split.train, ":train");
  const data::Dataset validation = full.subset(split.validation, ":val");
  const data::Dataset test = full.subset(split.test, ":test");

  // Three genuinely trained user models with different capacities.
  models::ModelPool pool;
  for (const std::size_t width : {16u, 32u, 64u}) {
    models::TrainableConfig config;
    config.hidden_dims = {width, width / 2};
    config.epochs = 20;
    config.seed = 1000 + width;
    auto model = std::make_shared<models::TrainableClassifier>(
        "user-mlp-" + std::to_string(width), train, config);
    const double loss = model->fit(train);
    const auto report = fairness::evaluate_model(*model, test);
    std::cout << model->name() << ": final loss " << loss << ", test acc "
              << report.accuracy << ", U(age) "
              << report.unfairness_for("age") << ", U(site) "
              << report.unfairness_for("site") << "\n";
    pool.add(std::move(model));
  }

  // Mix in two frozen zoo models (calibrated simulations).
  const models::ModelPool zoo = models::calibrated_isic_pool(full);
  pool.add(zoo.share(zoo.index_of("ResNet-18")));
  pool.add(zoo.share(zoo.index_of("DenseNet121")));
  std::cout << "\npool:";
  for (const std::string& name : pool.names()) std::cout << ' ' << name;
  std::cout << "\n\n";

  rl::SearchSpace space;
  space.pool_size = pool.size();
  space.paired_models = 2;
  core::MuffinSearchConfig config;
  config.episodes = 30;
  config.controller_batch = 6;
  config.reward.attributes = {"age", "site"};
  config.head_train.epochs = 12;
  config.proxy.max_samples = 2500;

  core::MuffinSearch search(pool, train, validation, space, config);
  const core::SearchResult result = search.run();
  const auto fused = search.build_fused(result.best().choice, "Muffin-BYO");
  const auto report = fairness::evaluate_model(*fused, test);
  std::cout << "Muffin-BYO (" << result.best().body_names << "): test acc "
            << report.accuracy << ", U(age) " << report.unfairness_for("age")
            << ", U(site) " << report.unfairness_for("site") << "\n";

  // Persist the trained head as a model artifact and load it back.
  data::ArtifactWriter writer;
  fused->head().save_artifact(writer, "head");
  const nn::Mlp reloaded = nn::Mlp::from_artifact(
      data::Artifact::from_bytes(writer.bytes()), "head");
  std::cout << "head round-trips through serialization: spec "
            << reloaded.spec().to_string() << " ("
            << reloaded.parameter_count() << " parameters)\n";
  return 0;
}
