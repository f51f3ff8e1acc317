#include "core/proxy.h"

#include "common/error.h"

namespace muffin::core {

ProxyDataset build_proxy(const data::Dataset& dataset,
                         const ProxyConfig& config) {
  MUFFIN_REQUIRE(dataset.size() > 0, "cannot build a proxy of an empty set");
  const auto& schema = dataset.schema();
  const std::vector<data::Record>& records = dataset.records();
  // The unprivileged flags, [attribute][group], read once.
  std::vector<std::vector<unsigned char>> unprivileged(schema.size());
  for (std::size_t a = 0; a < schema.size(); ++a) {
    for (std::size_t g = 0; g < schema[a].group_count(); ++g) {
      unprivileged[a].push_back(dataset.is_unprivileged(a, g) ? 1 : 0);
    }
  }

  // Pass 1 (Algorithm 1, first loop): per-image weight = number of
  // unprivileged groups the image belongs to.
  std::vector<std::size_t> image_weight(dataset.size(), 0);
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    for (std::size_t a = 0; a < schema.size(); ++a) {
      image_weight[i] += unprivileged[a][records[i].groups[a]];
    }
  }

  // Pass 2 (Algorithm 1, second loop): group weight = mean image weight.
  ProxyDataset proxy;
  proxy.source_size = dataset.size();
  proxy.group_weight.resize(schema.size());
  std::vector<std::vector<std::size_t>> group_n(schema.size());
  for (std::size_t a = 0; a < schema.size(); ++a) {
    proxy.group_weight[a].assign(schema[a].group_count(), 0.0);
    group_n[a].assign(schema[a].group_count(), 0);
  }
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    for (std::size_t a = 0; a < schema.size(); ++a) {
      const std::size_t g = records[i].groups[a];
      if (!unprivileged[a][g]) continue;
      proxy.group_weight[a][g] += static_cast<double>(image_weight[i]);
      ++group_n[a][g];
    }
  }
  for (std::size_t a = 0; a < schema.size(); ++a) {
    for (std::size_t g = 0; g < proxy.group_weight[a].size(); ++g) {
      if (group_n[a][g] > 0) {
        proxy.group_weight[a][g] /= static_cast<double>(group_n[a][g]);
      }
    }
  }

  // Select unprivileged records; sample weight = mean group weight of its
  // unprivileged groups (or 1.0 in the unweighted ablation).
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    if (image_weight[i] == 0) continue;
    proxy.indices.push_back(i);
    if (!config.use_weights) {
      proxy.weights.push_back(1.0);
      continue;
    }
    double sum = 0.0;
    std::size_t count = 0;
    for (std::size_t a = 0; a < schema.size(); ++a) {
      const std::size_t g = records[i].groups[a];
      if (!unprivileged[a][g]) continue;
      sum += proxy.group_weight[a][g];
      ++count;
    }
    proxy.weights.push_back(sum / static_cast<double>(count));
  }
  MUFFIN_REQUIRE(!proxy.indices.empty(),
                 "dataset has no unprivileged-group records");

  // Optional subsample for bounded per-episode training cost.
  if (config.max_samples > 0 && proxy.indices.size() > config.max_samples) {
    SplitRng rng = SplitRng(config.seed).fork("proxy-subsample");
    std::vector<std::size_t> order =
        rng.sample_without_replacement(proxy.indices.size(),
                                       config.max_samples);
    std::vector<std::size_t> indices;
    std::vector<double> weights;
    indices.reserve(config.max_samples);
    weights.reserve(config.max_samples);
    for (const std::size_t k : order) {
      indices.push_back(proxy.indices[k]);
      weights.push_back(proxy.weights[k]);
    }
    proxy.indices = std::move(indices);
    proxy.weights = std::move(weights);
  }

  // Normalize weights to mean 1 so the head's learning-rate scale does not
  // depend on how many attributes a scenario has.
  if (config.use_weights) {
    double sum = 0.0;
    for (const double w : proxy.weights) sum += w;
    const double scale =
        static_cast<double>(proxy.weights.size()) / std::max(sum, 1e-12);
    for (double& w : proxy.weights) w *= scale;
  }
  return proxy;
}

}  // namespace muffin::core
