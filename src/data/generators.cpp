#include "data/generators.h"

#include <cmath>

#include "common/error.h"

namespace muffin::data {

namespace {

std::vector<double> normalized(std::vector<double> weights) {
  double total = 0.0;
  for (const double w : weights) total += w;
  MUFFIN_REQUIRE(total > 0.0, "distribution must have positive mass");
  for (double& w : weights) w /= total;
  return weights;
}

/// Conditional distribution of attribute-k groups given attribute-0 group:
/// marginal tilted away from unprivileged groups when g0 is unprivileged.
std::vector<double> conditional_groups(const SyntheticConfig& config,
                                       std::size_t attribute,
                                       bool g0_unprivileged) {
  std::vector<double> probs = config.group_marginals[attribute];
  if (g0_unprivileged && config.unprivileged_repulsion > 0.0) {
    for (std::size_t g = 0; g < probs.size(); ++g) {
      if (config.unprivileged[attribute][g]) {
        probs[g] *= std::exp(-config.unprivileged_repulsion);
      }
    }
  }
  return normalized(std::move(probs));
}

/// Class prior inside a record's groups: skewed toward rare classes in
/// unprivileged groups (their case mix is harder in the real datasets).
std::vector<double> conditional_classes(const SyntheticConfig& config,
                                        std::size_t unprivileged_count) {
  if (unprivileged_count == 0 || config.class_skew <= 0.0) {
    return config.class_priors;
  }
  const double skew =
      std::min(1.0, config.class_skew *
                        static_cast<double>(unprivileged_count));
  std::vector<double> probs(config.class_priors.size());
  for (std::size_t c = 0; c < probs.size(); ++c) {
    probs[c] = std::pow(config.class_priors[c], 1.0 - skew);
  }
  return normalized(std::move(probs));
}

}  // namespace

void SyntheticConfig::validate() const {
  MUFFIN_REQUIRE(num_samples > 0, "num_samples must be positive");
  MUFFIN_REQUIRE(num_classes > 1, "need at least two classes");
  MUFFIN_REQUIRE(!schema.empty(), "need at least one attribute");
  MUFFIN_REQUIRE(group_marginals.size() == schema.size(),
                 "one marginal distribution per attribute required");
  MUFFIN_REQUIRE(unprivileged.size() == schema.size(),
                 "one unprivileged flag set per attribute required");
  for (std::size_t a = 0; a < schema.size(); ++a) {
    MUFFIN_REQUIRE(group_marginals[a].size() == schema[a].group_count(),
                   "marginal size must match group count");
    MUFFIN_REQUIRE(unprivileged[a].size() == schema[a].group_count(),
                   "unprivileged flags must match group count");
    for (const double p : group_marginals[a]) {
      MUFFIN_REQUIRE(p >= 0.0, "marginals must be non-negative");
    }
  }
  MUFFIN_REQUIRE(class_priors.size() == num_classes,
                 "class priors must match num_classes");
  MUFFIN_REQUIRE(feature_dim > 0, "feature_dim must be positive");
  MUFFIN_REQUIRE(class_skew >= 0.0 && class_skew <= 1.0,
                 "class_skew must be in [0, 1]");
  MUFFIN_REQUIRE(unprivileged_repulsion >= 0.0,
                 "unprivileged_repulsion must be non-negative");
}

Dataset generate(const SyntheticConfig& config) {
  config.validate();
  SplitRng master(config.seed);
  SplitRng group_rng = master.fork("groups");
  SplitRng class_rng = master.fork("classes");
  SplitRng difficulty_rng = master.fork("difficulty");
  SplitRng feature_rng = master.fork("features");
  SplitRng geometry_rng = master.fork("geometry");

  // Fixed feature geometry: class centroids and per-(attribute, group)
  // offsets drawn once per scenario.
  std::vector<std::vector<double>> class_centroids(config.num_classes);
  for (auto& centroid : class_centroids) {
    centroid.resize(config.feature_dim);
    for (double& v : centroid) {
      v = geometry_rng.normal(0.0, config.class_separation /
                                       std::sqrt(static_cast<double>(
                                           config.feature_dim)));
    }
  }
  std::vector<std::vector<std::vector<double>>> group_offsets(
      config.schema.size());
  for (std::size_t a = 0; a < config.schema.size(); ++a) {
    group_offsets[a].resize(config.schema[a].group_count());
    for (auto& offset : group_offsets[a]) {
      offset.resize(config.feature_dim);
      for (double& v : offset) {
        v = geometry_rng.normal(
            0.0, config.group_shift /
                     std::sqrt(static_cast<double>(config.feature_dim)));
      }
    }
  }

  Dataset dataset(config.name, config.num_classes, config.schema);
  for (std::size_t a = 0; a < config.schema.size(); ++a) {
    dataset.set_unprivileged(a, config.unprivileged[a]);
  }
  dataset.reserve(config.num_samples);

  // A scenario has few distinct sampling distributions, built once here:
  // attribute 0's marginal, every other attribute's groups given whether
  // the attribute-0 group is unprivileged, and the classes given how many
  // unprivileged groups a record is in.
  const std::size_t attributes = config.schema.size();
  const std::vector<double> marginal0 = normalized(config.group_marginals[0]);
  std::vector<std::vector<double>> groups_given[2];
  for (const bool g0_unprivileged : {false, true}) {
    groups_given[g0_unprivileged].resize(attributes);
    for (std::size_t a = 1; a < attributes; ++a) {
      groups_given[g0_unprivileged][a] =
          conditional_groups(config, a, g0_unprivileged);
    }
  }
  std::vector<std::vector<double>> classes_given(attributes + 1);
  for (std::size_t count = 0; count <= attributes; ++count) {
    classes_given[count] = conditional_classes(config, count);
  }
  for (std::size_t i = 0; i < config.num_samples; ++i) {
    Record record;
    record.uid = config.seed * 0x9e3779b97f4a7c15ULL + i;
    record.groups.resize(config.schema.size());

    // Attribute 0 from its marginal; the rest conditioned on whether the
    // attribute-0 group is unprivileged (anti-co-occurrence).
    record.groups[0] = group_rng.categorical(marginal0);
    const bool g0_unprivileged =
        config.unprivileged[0][record.groups[0]];
    for (std::size_t a = 1; a < attributes; ++a) {
      record.groups[a] =
          group_rng.categorical(groups_given[g0_unprivileged][a]);
    }

    std::size_t unprivileged_count = 0;
    for (std::size_t a = 0; a < config.schema.size(); ++a) {
      if (config.unprivileged[a][record.groups[a]]) ++unprivileged_count;
    }

    record.label = class_rng.categorical(classes_given[unprivileged_count]);
    record.difficulty = difficulty_rng.normal();

    // Features: class centroid + group offsets + difficulty-scaled noise,
    // with extra noise per unprivileged membership.
    const double noise_scale =
        config.feature_noise *
        (1.0 + config.unprivileged_noise *
                   static_cast<double>(unprivileged_count)) *
        (1.0 + 0.25 * std::tanh(record.difficulty));
    record.features.resize(config.feature_dim);
    for (std::size_t d = 0; d < config.feature_dim; ++d) {
      double value = class_centroids[record.label][d];
      for (std::size_t a = 0; a < config.schema.size(); ++a) {
        value += group_offsets[a][record.groups[a]][d];
      }
      value += feature_rng.normal(0.0, noise_scale);
      record.features[d] = value;
    }
    dataset.add_record(std::move(record));
  }
  return dataset;
}

SyntheticConfig isic2019_config(std::size_t num_samples, std::uint64_t seed) {
  SyntheticConfig config;
  config.name = "isic2019";
  config.num_samples = num_samples;
  config.num_classes = 8;  // MEL, NV, BCC, AK, BKL, DF, VASC, SCC
  config.seed = seed;
  config.schema = {
      {"age", {"0-20", "20-40", "40-60", "60-80", "80+", "unknown"}},
      {"gender", {"male", "female"}},
      {"site",
       {"anterior torso", "head/neck", "lateral torso", "lower extremity",
        "oral/genital", "palms/soles", "posterior torso", "unknown",
        "upper extremity"}}};
  config.group_marginals = {
      {0.06, 0.22, 0.34, 0.27, 0.08, 0.03},
      {0.52, 0.48},
      {0.18, 0.16, 0.03, 0.20, 0.02, 0.03, 0.19, 0.06, 0.13}};
  config.unprivileged = {
      {false, false, false, true, true, false},
      {false, false},
      {false, true, true, false, true, true, true, false, true}};
  config.class_priors = {0.178, 0.508, 0.131, 0.034,
                         0.104, 0.010, 0.010, 0.025};
  return config;
}

Dataset synthetic_isic2019(std::size_t num_samples, std::uint64_t seed) {
  return generate(isic2019_config(num_samples, seed));
}

SyntheticConfig fitzpatrick17k_config(std::size_t num_samples,
                                      std::uint64_t seed) {
  SyntheticConfig config;
  config.name = "fitzpatrick17k";
  config.num_samples = num_samples;
  config.num_classes = 9;
  config.seed = seed;
  config.schema = {
      {"skin_tone", {"light", "white", "medium", "olive", "brown", "black"}},
      {"type", {"benign", "malignant", "non-neoplastic"}}};
  config.group_marginals = {{0.18, 0.28, 0.24, 0.14, 0.10, 0.06},
                            {0.45, 0.30, 0.25}};
  config.unprivileged = {{false, false, false, true, true, true},
                         {false, true, false}};
  config.class_priors = {0.22, 0.17, 0.14, 0.12, 0.10,
                         0.09, 0.07, 0.05, 0.04};
  // Fitzpatrick17K is smaller and noisier than ISIC2019; the paper's
  // absolute accuracies there are ~62%, so widen the noise.
  config.feature_noise = 1.35;
  config.unprivileged_repulsion = 0.8;
  return config;
}

Dataset synthetic_fitzpatrick17k(std::size_t num_samples,
                                 std::uint64_t seed) {
  return generate(fitzpatrick17k_config(num_samples, seed));
}

}  // namespace muffin::data
