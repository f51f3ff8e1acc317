#include "data/generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/error.h"
#include "common/stats.h"

namespace muffin::data {
namespace {

TEST(Generators, IsicShapeMatchesPaper) {
  const Dataset ds = synthetic_isic2019(5000, 1);
  EXPECT_EQ(ds.num_classes(), 8u);  // 8 dermatology diseases
  ASSERT_EQ(ds.schema().size(), 3u);
  EXPECT_EQ(ds.schema()[0].name, "age");
  EXPECT_EQ(ds.schema()[0].group_count(), 6u);  // paper: 6 age subgroups
  EXPECT_EQ(ds.schema()[1].name, "gender");
  EXPECT_EQ(ds.schema()[1].group_count(), 2u);
  EXPECT_EQ(ds.schema()[2].name, "site");
  EXPECT_EQ(ds.schema()[2].group_count(), 9u);  // paper: 9 site subgroups
  EXPECT_EQ(ds.size(), 5000u);
}

TEST(Generators, FitzpatrickShapeMatchesPaper) {
  const Dataset ds = synthetic_fitzpatrick17k(4000, 1);
  EXPECT_EQ(ds.num_classes(), 9u);  // paper: 9-class classification
  ASSERT_EQ(ds.schema().size(), 2u);
  EXPECT_EQ(ds.schema()[0].name, "skin_tone");
  EXPECT_EQ(ds.schema()[0].group_count(), 6u);  // Fitzpatrick scale I-VI
  EXPECT_EQ(ds.schema()[1].name, "type");
}

TEST(Generators, DeterministicGivenSeed) {
  const Dataset a = synthetic_isic2019(1000, 42);
  const Dataset b = synthetic_isic2019(1000, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.record(i).uid, b.record(i).uid);
    EXPECT_EQ(a.record(i).label, b.record(i).label);
    EXPECT_EQ(a.record(i).groups, b.record(i).groups);
    EXPECT_DOUBLE_EQ(a.record(i).difficulty, b.record(i).difficulty);
  }
}

TEST(Generators, DifferentSeedsDiffer) {
  const Dataset a = synthetic_isic2019(500, 1);
  const Dataset b = synthetic_isic2019(500, 2);
  std::size_t same_label = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.record(i).label == b.record(i).label) ++same_label;
  }
  EXPECT_LT(same_label, a.size());
}

TEST(Generators, GroupMarginalsApproximatelyRespected) {
  const SyntheticConfig config = isic2019_config(20000, 7);
  const Dataset ds = generate(config);
  for (std::size_t a = 0; a < config.schema.size(); ++a) {
    const auto sizes = ds.group_sizes(a);
    double total_mass = 0.0;
    for (const double m : config.group_marginals[a]) total_mass += m;
    for (std::size_t g = 0; g < sizes.size(); ++g) {
      const double realized =
          static_cast<double>(sizes[g]) / static_cast<double>(ds.size());
      const double expected = config.group_marginals[a][g] / total_mass;
      // Repulsion shifts conditionals; allow a generous band.
      EXPECT_NEAR(realized, expected, 0.05)
          << config.schema[a].name << " group " << g;
    }
  }
}

TEST(Generators, ClassPriorsRespectedWithoutSkew) {
  SyntheticConfig config = isic2019_config(20000, 7);
  config.class_skew = 0.0;  // skew intentionally distorts priors; disable
  const Dataset ds = generate(config);
  const auto sizes = ds.class_sizes();
  for (std::size_t c = 0; c < sizes.size(); ++c) {
    const double realized =
        static_cast<double>(sizes[c]) / static_cast<double>(ds.size());
    EXPECT_NEAR(realized, config.class_priors[c], 0.02) << "class " << c;
  }
}

TEST(Generators, ClassSkewFlattensUnprivilegedCaseMix) {
  // With skew on, unprivileged groups must see relatively fewer
  // majority-class samples than privileged groups (their case mix is
  // harder), which is where the distortion of the global priors comes from.
  const SyntheticConfig config = isic2019_config(20000, 7);
  const Dataset ds = generate(config);
  const std::size_t majority_class = 1;  // NV, prior 0.508
  std::size_t unpriv_n = 0, unpriv_majority = 0;
  std::size_t priv_n = 0, priv_majority = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const Record& r = ds.record(i);
    bool unprivileged = false;
    for (std::size_t a = 0; a < ds.schema().size(); ++a) {
      if (ds.is_unprivileged(a, r.groups[a])) unprivileged = true;
    }
    if (unprivileged) {
      ++unpriv_n;
      if (r.label == majority_class) ++unpriv_majority;
    } else {
      ++priv_n;
      if (r.label == majority_class) ++priv_majority;
    }
  }
  const double unpriv_rate =
      static_cast<double>(unpriv_majority) / static_cast<double>(unpriv_n);
  const double priv_rate =
      static_cast<double>(priv_majority) / static_cast<double>(priv_n);
  EXPECT_LT(unpriv_rate, priv_rate - 0.05);
}

TEST(Generators, DifficultyIsStandardNormal) {
  const Dataset ds = synthetic_isic2019(20000, 9);
  std::vector<double> difficulty(ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    difficulty[i] = ds.record(i).difficulty;
  }
  EXPECT_NEAR(mean(difficulty), 0.0, 0.03);
  EXPECT_NEAR(stddev(difficulty), 1.0, 0.03);
}

TEST(Generators, UnprivilegedFlagsSet) {
  const Dataset ds = synthetic_isic2019(1000, 3);
  // Paper: age 60-80 and 80+ are the unprivileged age groups.
  const std::size_t age = attribute_index(ds.schema(), "age");
  EXPECT_TRUE(ds.is_unprivileged(age, ds.schema()[age].group_index("60-80")));
  EXPECT_TRUE(ds.is_unprivileged(age, ds.schema()[age].group_index("80+")));
  EXPECT_FALSE(ds.is_unprivileged(age, ds.schema()[age].group_index("0-20")));
  // Gender has no unprivileged group (Fig. 1a-b: gender is near-fair).
  const std::size_t gender = attribute_index(ds.schema(), "gender");
  EXPECT_TRUE(ds.unprivileged_groups(gender).empty());
  // Six of nine sites are unprivileged (Fig. 6c).
  const std::size_t site = attribute_index(ds.schema(), "site");
  EXPECT_EQ(ds.unprivileged_groups(site).size(), 6u);
}

TEST(Generators, UnprivilegedRepulsionAnticorrelatesAttributes) {
  // The seesaw mechanism: with repulsion, unprivileged-age records must be
  // *less* likely to carry unprivileged sites than privileged-age records.
  SyntheticConfig config = isic2019_config(30000, 11);
  config.unprivileged_repulsion = 1.2;
  const Dataset ds = generate(config);
  const std::size_t age = 0;
  const std::size_t site = 2;
  std::size_t unpriv_age_n = 0, unpriv_age_unpriv_site = 0;
  std::size_t priv_age_n = 0, priv_age_unpriv_site = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const Record& r = ds.record(i);
    const bool ua = ds.is_unprivileged(age, r.groups[age]);
    const bool us = ds.is_unprivileged(site, r.groups[site]);
    if (ua) {
      ++unpriv_age_n;
      if (us) ++unpriv_age_unpriv_site;
    } else {
      ++priv_age_n;
      if (us) ++priv_age_unpriv_site;
    }
  }
  const double p_us_given_ua =
      static_cast<double>(unpriv_age_unpriv_site) /
      static_cast<double>(unpriv_age_n);
  const double p_us_given_pa = static_cast<double>(priv_age_unpriv_site) /
                               static_cast<double>(priv_age_n);
  EXPECT_LT(p_us_given_ua, p_us_given_pa - 0.05);
}

TEST(Generators, ZeroRepulsionMakesAttributesIndependent) {
  SyntheticConfig config = isic2019_config(30000, 11);
  config.unprivileged_repulsion = 0.0;
  const Dataset ds = generate(config);
  std::size_t unpriv_age_n = 0, unpriv_age_unpriv_site = 0;
  std::size_t priv_age_n = 0, priv_age_unpriv_site = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const Record& r = ds.record(i);
    const bool ua = ds.is_unprivileged(0, r.groups[0]);
    const bool us = ds.is_unprivileged(2, r.groups[2]);
    if (ua) {
      ++unpriv_age_n;
      if (us) ++unpriv_age_unpriv_site;
    } else {
      ++priv_age_n;
      if (us) ++priv_age_unpriv_site;
    }
  }
  const double p_us_given_ua =
      static_cast<double>(unpriv_age_unpriv_site) /
      static_cast<double>(unpriv_age_n);
  const double p_us_given_pa = static_cast<double>(priv_age_unpriv_site) /
                               static_cast<double>(priv_age_n);
  EXPECT_NEAR(p_us_given_ua, p_us_given_pa, 0.025);
}

TEST(Generators, FeaturesCarryClassSignal) {
  // Same-class records must be closer in feature space on average than
  // different-class records (otherwise trainable classifiers cannot work).
  const Dataset ds = synthetic_isic2019(2000, 13);
  double same = 0.0, diff = 0.0;
  std::size_t same_n = 0, diff_n = 0;
  for (std::size_t i = 0; i + 1 < 600; i += 2) {
    const Record& a = ds.record(i);
    const Record& b = ds.record(i + 1);
    double dist = 0.0;
    for (std::size_t d = 0; d < a.features.size(); ++d) {
      dist += (a.features[d] - b.features[d]) * (a.features[d] - b.features[d]);
    }
    if (a.label == b.label) {
      same += dist;
      ++same_n;
    } else {
      diff += dist;
      ++diff_n;
    }
  }
  ASSERT_GT(same_n, 10u);
  ASSERT_GT(diff_n, 10u);
  EXPECT_LT(same / static_cast<double>(same_n),
            diff / static_cast<double>(diff_n));
}

TEST(Generators, ValidateCatchesBrokenConfigs) {
  SyntheticConfig config = isic2019_config(100, 1);
  config.class_priors.pop_back();
  EXPECT_THROW(config.validate(), Error);

  config = isic2019_config(100, 1);
  config.group_marginals[0].pop_back();
  EXPECT_THROW(config.validate(), Error);

  config = isic2019_config(100, 1);
  config.num_samples = 0;
  EXPECT_THROW(config.validate(), Error);

  config = isic2019_config(100, 1);
  config.class_skew = 1.5;
  EXPECT_THROW(config.validate(), Error);

  config = isic2019_config(100, 1);
  config.unprivileged_repulsion = -0.1;
  EXPECT_THROW(config.validate(), Error);
}

// --- bit-identity against a per-record reference ---------------------------

std::vector<double> reference_normalized(std::vector<double> weights) {
  double total = 0.0;
  for (const double w : weights) total += w;
  for (double& w : weights) w /= total;
  return weights;
}

/// Reference for generate(): the same streams, draws and arithmetic, but
/// every record builds and normalizes its own attribute-k group
/// distributions and class distribution.
Dataset reference_generate(const SyntheticConfig& config) {
  SplitRng master(config.seed);
  SplitRng group_rng = master.fork("groups");
  SplitRng class_rng = master.fork("classes");
  SplitRng difficulty_rng = master.fork("difficulty");
  SplitRng feature_rng = master.fork("features");
  SplitRng geometry_rng = master.fork("geometry");
  const double dim = static_cast<double>(config.feature_dim);
  std::vector<std::vector<double>> class_centroids(config.num_classes);
  for (auto& centroid : class_centroids) {
    centroid.resize(config.feature_dim);
    for (double& v : centroid) {
      v = geometry_rng.normal(0.0, config.class_separation / std::sqrt(dim));
    }
  }
  std::vector<std::vector<std::vector<double>>> group_offsets(
      config.schema.size());
  for (std::size_t a = 0; a < config.schema.size(); ++a) {
    group_offsets[a].resize(config.schema[a].group_count());
    for (auto& offset : group_offsets[a]) {
      offset.resize(config.feature_dim);
      for (double& v : offset) {
        v = geometry_rng.normal(0.0, config.group_shift / std::sqrt(dim));
      }
    }
  }
  Dataset dataset(config.name, config.num_classes, config.schema);
  for (std::size_t a = 0; a < config.schema.size(); ++a) {
    dataset.set_unprivileged(a, config.unprivileged[a]);
  }
  const std::vector<double> marginal0 =
      reference_normalized(config.group_marginals[0]);
  for (std::size_t i = 0; i < config.num_samples; ++i) {
    Record record;
    record.uid = config.seed * 0x9e3779b97f4a7c15ULL + i;
    record.groups.resize(config.schema.size());
    record.groups[0] = group_rng.categorical(marginal0);
    const bool g0_unprivileged = config.unprivileged[0][record.groups[0]];
    for (std::size_t a = 1; a < config.schema.size(); ++a) {
      std::vector<double> probs = config.group_marginals[a];
      if (g0_unprivileged && config.unprivileged_repulsion > 0.0) {
        for (std::size_t g = 0; g < probs.size(); ++g) {
          if (config.unprivileged[a][g]) {
            probs[g] *= std::exp(-config.unprivileged_repulsion);
          }
        }
      }
      record.groups[a] = group_rng.categorical(reference_normalized(probs));
    }
    std::size_t unprivileged_count = 0;
    for (std::size_t a = 0; a < config.schema.size(); ++a) {
      if (config.unprivileged[a][record.groups[a]]) ++unprivileged_count;
    }
    std::vector<double> classes = config.class_priors;
    if (unprivileged_count > 0 && config.class_skew > 0.0) {
      const double skew = std::min(
          1.0, config.class_skew * static_cast<double>(unprivileged_count));
      for (std::size_t c = 0; c < classes.size(); ++c) {
        classes[c] = std::pow(config.class_priors[c], 1.0 - skew);
      }
      classes = reference_normalized(classes);
    }
    record.label = class_rng.categorical(classes);
    record.difficulty = difficulty_rng.normal();
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

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void expect_bit_identical(const Dataset& got, const Dataset& want) {
  EXPECT_EQ(got.name(), want.name());
  EXPECT_EQ(got.num_classes(), want.num_classes());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t a = 0; a < want.schema().size(); ++a) {
    EXPECT_EQ(got.unprivileged_groups(a), want.unprivileged_groups(a));
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    const Record& g = got.record(i);
    const Record& w = want.record(i);
    ASSERT_EQ(g.uid, w.uid) << "record " << i;
    ASSERT_EQ(g.label, w.label) << "record " << i;
    ASSERT_EQ(g.groups, w.groups) << "record " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(g.difficulty),
              std::bit_cast<std::uint64_t>(w.difficulty))
        << "record " << i;
    ASSERT_TRUE(same_bits(g.features, w.features)) << "record " << i;
  }
}

TEST(Generators, BitIdenticalToPerRecordDistributionsIsic) {
  const SyntheticConfig config = isic2019_config(6000, 2019);
  expect_bit_identical(generate(config), reference_generate(config));
}

TEST(Generators, BitIdenticalToPerRecordDistributionsFitzpatrick) {
  const SyntheticConfig config = fitzpatrick17k_config(6000, 1717);
  expect_bit_identical(generate(config), reference_generate(config));
}

TEST(Generators, BitIdenticalToPerRecordDistributionsWithoutRepulsionOrSkew) {
  // Both shortcut branches: the group conditional is the normalized
  // marginal and the class conditional is the unnormalized prior.
  SyntheticConfig config = isic2019_config(4000, 31);
  config.unprivileged_repulsion = 0.0;
  config.class_skew = 0.0;
  config.class_priors = {1.78, 5.08, 1.31, 0.34, 1.04, 0.10, 0.10, 0.25};
  expect_bit_identical(generate(config), reference_generate(config));
}

class SampleSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SampleSizeSweep, GeneratesExactlyRequestedCount) {
  const Dataset ds = synthetic_isic2019(GetParam(), 17);
  EXPECT_EQ(ds.size(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, SampleSizeSweep,
                         ::testing::Values(1, 10, 100, 1234));

}  // namespace
}  // namespace muffin::data
