#include "models/calibrated.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/stats.h"
#include "data/generators.h"
#include "fairness/metrics.h"
#include "models/profiles.h"
#include "tensor/ops.h"

namespace muffin::models {
namespace {

const data::Dataset& shared_dataset() {
  static const data::Dataset ds = data::synthetic_isic2019(12000, 21);
  return ds;
}

ArchitectureProfile test_profile() {
  ArchitectureProfile profile;
  profile.name = "TestNet";
  profile.family = "Test";
  profile.parameter_count = 1000000;
  profile.accuracy = 0.78;
  profile.unfairness = {{"age", 0.36}, {"site", 0.45}, {"gender", 0.08}};
  return profile;
}

TEST(CalibratedModel, ScoresAreValidDistributions) {
  const CalibratedModel model(test_profile(), shared_dataset());
  for (std::size_t i = 0; i < 200; ++i) {
    const tensor::Vector s = model.scores(shared_dataset().record(i));
    ASSERT_EQ(s.size(), 8u);
    EXPECT_NEAR(tensor::sum(s), 1.0, 1e-9);
    for (const double p : s) EXPECT_GE(p, 0.0);
  }
}

TEST(CalibratedModel, ScoresDeterministic) {
  const CalibratedModel model(test_profile(), shared_dataset());
  const auto& record = shared_dataset().record(7);
  const tensor::Vector a = model.scores(record);
  const tensor::Vector b = model.scores(record);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(CalibratedModel, PredictConsistentWithIsCorrect) {
  const CalibratedModel model(test_profile(), shared_dataset());
  for (std::size_t i = 0; i < 2000; ++i) {
    const auto& record = shared_dataset().record(i);
    const bool correct = model.predict(record) == record.label;
    EXPECT_EQ(correct, model.is_correct(record)) << "record " << i;
  }
}

TEST(CalibratedModel, OverallAccuracyNearTarget) {
  const CalibratedModel model(test_profile(), shared_dataset());
  const auto report = fairness::evaluate_model(model, shared_dataset());
  EXPECT_NEAR(report.accuracy, 0.78, 0.02);
}

TEST(CalibratedModel, UnfairnessNearTargets) {
  const CalibratedModel model(test_profile(), shared_dataset());
  const auto report = fairness::evaluate_model(model, shared_dataset());
  // Sampled unfairness carries finite-sample inflation on rare groups;
  // targets must be matched within a moderate band on 12k samples.
  EXPECT_NEAR(report.unfairness_for("age"), 0.36, 0.10);
  EXPECT_NEAR(report.unfairness_for("site"), 0.45, 0.12);
  EXPECT_LT(report.unfairness_for("gender"), 0.15);
}

TEST(CalibratedModel, UnprivilegedGroupsAreLessAccurate) {
  const CalibratedModel model(test_profile(), shared_dataset());
  const auto report = fairness::evaluate_model(model, shared_dataset());
  const auto& age = report.for_attribute("age");
  const auto& schema = shared_dataset().schema()[0];
  // Unprivileged 60-80 and 80+ must fall below overall accuracy.
  EXPECT_LT(age.group_accuracy[schema.group_index("60-80")], report.accuracy);
  EXPECT_LT(age.group_accuracy[schema.group_index("80+")], report.accuracy);
  // Privileged 20-40 must be above.
  EXPECT_GT(age.group_accuracy[schema.group_index("20-40")], report.accuracy);
}

TEST(CalibratedModel, CorrectnessProbabilityRespectsClamp) {
  CalibrationConfig config;
  config.min_probability = 0.05;
  config.max_probability = 0.95;
  const CalibratedModel model(test_profile(), shared_dataset(), config);
  for (std::size_t i = 0; i < 500; ++i) {
    const double p = model.correctness_probability(shared_dataset().record(i));
    EXPECT_GE(p, 0.05);
    EXPECT_LE(p, 0.95);
  }
}

TEST(CalibratedModel, SharedDifficultyCorrelatesModels) {
  // Two different architectures must agree more often than independent
  // models with the same accuracies would.
  ArchitectureProfile a = test_profile();
  ArchitectureProfile b = test_profile();
  b.name = "OtherNet";
  const CalibratedModel model_a(a, shared_dataset());
  const CalibratedModel model_b(b, shared_dataset());
  std::size_t both = 0, a_only = 0, b_only = 0, neither = 0;
  const std::size_t n = 5000;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& record = shared_dataset().record(i);
    const bool ca = model_a.is_correct(record);
    const bool cb = model_b.is_correct(record);
    if (ca && cb) ++both;
    else if (ca) ++a_only;
    else if (cb) ++b_only;
    else ++neither;
  }
  const double p_a = static_cast<double>(both + a_only) / n;
  const double p_b = static_cast<double>(both + b_only) / n;
  const double p_both = static_cast<double>(both) / n;
  // Positive dependence: P(both) > P(a)P(b) by a clear margin.
  EXPECT_GT(p_both, p_a * p_b + 0.03);
}

TEST(CalibratedModel, SameFamilyCorrelatesMoreThanCrossFamily) {
  // The family factor makes ResNet-18/34 err together more than
  // ResNet-18/DenseNet121 at matched accuracies.
  ArchitectureProfile r1 = test_profile();
  r1.name = "FamA-1";
  r1.family = "FamA";
  ArchitectureProfile r2 = test_profile();
  r2.name = "FamA-2";
  r2.family = "FamA";
  ArchitectureProfile d1 = test_profile();
  d1.name = "FamB-1";
  d1.family = "FamB";
  const CalibratedModel model_r1(r1, shared_dataset());
  const CalibratedModel model_r2(r2, shared_dataset());
  const CalibratedModel model_d1(d1, shared_dataset());

  const auto agreement = [&](const CalibratedModel& a,
                             const CalibratedModel& b) {
    std::size_t agree = 0;
    const std::size_t n = 8000;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& record = shared_dataset().record(i);
      if (a.is_correct(record) == b.is_correct(record)) ++agree;
    }
    return static_cast<double>(agree) / static_cast<double>(n);
  };
  EXPECT_GT(agreement(model_r1, model_r2),
            agreement(model_r1, model_d1) + 0.01);
}

TEST(CalibratedModel, ZeroRhoRemovesCorrelation) {
  CalibrationConfig config;
  config.copula_rho = 0.0;
  config.family_rho = 0.0;  // the test profiles share a family
  ArchitectureProfile a = test_profile();
  ArchitectureProfile b = test_profile();
  b.name = "OtherNet";
  const CalibratedModel model_a(a, shared_dataset(), config);
  const CalibratedModel model_b(b, shared_dataset(), config);
  std::size_t both = 0, a_total = 0, b_total = 0;
  const std::size_t n = 8000;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& record = shared_dataset().record(i);
    const bool ca = model_a.is_correct(record);
    const bool cb = model_b.is_correct(record);
    if (ca) ++a_total;
    if (cb) ++b_total;
    if (ca && cb) ++both;
  }
  const double expected = (static_cast<double>(a_total) / n) *
                          (static_cast<double>(b_total) / n);
  EXPECT_NEAR(static_cast<double>(both) / n, expected, 0.02);
}

TEST(CalibratedModel, WrongPredictionsAreFlatterOnAverage) {
  const CalibratedModel model(test_profile(), shared_dataset());
  double top_correct = 0.0, top_wrong = 0.0;
  std::size_t n_correct = 0, n_wrong = 0;
  for (std::size_t i = 0; i < 4000; ++i) {
    const auto& record = shared_dataset().record(i);
    const tensor::Vector s = model.scores(record);
    const double top = s[tensor::argmax(s)];
    if (model.is_correct(record)) {
      top_correct += top;
      ++n_correct;
    } else {
      top_wrong += top;
      ++n_wrong;
    }
  }
  ASSERT_GT(n_correct, 100u);
  ASSERT_GT(n_wrong, 100u);
  EXPECT_GT(top_correct / static_cast<double>(n_correct),
            top_wrong / static_cast<double>(n_wrong) + 0.05);
}

TEST(CalibratedModel, GroupOffsetsSumToTargetL1) {
  const CalibratedModel model(test_profile(), shared_dataset());
  // After calibration the L1 mass of the age offsets should be in the
  // neighbourhood of the 0.36 target (fixed-point rescaling keeps it close).
  const auto& offsets = model.group_offsets(0);
  double l1 = 0.0;
  for (const double d : offsets) l1 += std::abs(d);
  EXPECT_NEAR(l1, 0.36, 0.15);
}

TEST(CalibratedModel, RejectsBadInputs) {
  ArchitectureProfile profile = test_profile();
  profile.accuracy = 1.5;
  EXPECT_THROW(CalibratedModel(profile, shared_dataset()), Error);

  profile = test_profile();
  CalibrationConfig config;
  config.copula_rho = 1.0;
  EXPECT_THROW(CalibratedModel(profile, shared_dataset(), config), Error);

  // A group id one past its attribute's range (records decoded off the
  // wire are only count-checked) is rejected, never read out of bounds.
  const CalibratedModel model(test_profile(), shared_dataset());
  for (std::size_t a = 0; a < shared_dataset().schema().size(); ++a) {
    data::Record record = shared_dataset().record(0);
    record.groups[a] = shared_dataset().schema()[a].group_count();
    EXPECT_THROW((void)model.scores(record), Error) << "attribute " << a;
    EXPECT_THROW((void)model.score_batch({&record, 1}), Error)
        << "attribute " << a;
  }
}

/// Step 2 as it was first written: each round evaluates the clamped
/// probability once per record. Starts from the model's state after zero
/// rounds and returns {base accuracy, offsets...} after `rounds`.
std::vector<std::vector<double>> per_record_rounds(
    const ArchitectureProfile& profile, const data::Dataset& dataset,
    std::size_t rounds) {
  CalibrationConfig start;
  start.calibration_rounds = 0;
  const CalibratedModel unrounded(profile, dataset, start);
  const auto& schema = dataset.schema();
  double base = unrounded.base_accuracy();
  std::vector<std::vector<double>> offsets;
  for (std::size_t a = 0; a < schema.size(); ++a) {
    offsets.push_back(unrounded.group_offsets(a));
  }
  for (std::size_t round = 0; round < rounds; ++round) {
    double overall = 0.0;
    std::vector<std::vector<double>> group_sum(schema.size());
    for (std::size_t a = 0; a < schema.size(); ++a) {
      group_sum[a].assign(schema[a].group_count(), 0.0);
    }
    for (const data::Record& record : dataset.records()) {
      double p = base;
      for (std::size_t a = 0; a < schema.size(); ++a) {
        p += offsets[a][record.groups[a]];
      }
      p = clamp(p, start.min_probability, start.max_probability);
      overall += p;
      for (std::size_t a = 0; a < schema.size(); ++a) {
        group_sum[a][record.groups[a]] += p;
      }
    }
    overall /= static_cast<double>(dataset.size());
    base += 0.9 * (profile.accuracy - overall);
    for (std::size_t a = 0; a < schema.size(); ++a) {
      const auto it = profile.unfairness.find(schema[a].name);
      if (it == profile.unfairness.end() || it->second <= 0.0) continue;
      const std::vector<std::size_t> sizes = dataset.group_sizes(a);
      double realized = 0.0;
      for (std::size_t g = 0; g < sizes.size(); ++g) {
        if (sizes[g] == 0) continue;
        realized += std::abs(group_sum[a][g] / static_cast<double>(sizes[g]) -
                             overall);
      }
      if (realized <= 1e-9) continue;
      const double scale = clamp(it->second / realized, 0.5, 2.0);
      for (double& d : offsets[a]) d *= 1.0 + 0.8 * (scale - 1.0);
    }
  }
  offsets.insert(offsets.begin(), {base});
  return offsets;
}

TEST(CalibratedModel, CellRoundsEqualPerRecordRounds) {
  // The rounds evaluate the probability once per cell of the calibration
  // walk; the sums still run in record order, so every bit must match.
  const data::Dataset fitzpatrick = data::synthetic_fitzpatrick17k(2000, 5);
  const std::vector<std::pair<const data::Dataset*, ArchitectureProfile>>
      cases = {{&shared_dataset(), test_profile()},
               {&shared_dataset(), isic2019_profiles().front()},
               {&fitzpatrick, fitzpatrick17k_profiles().back()}};
  for (const auto& [dataset, profile] : cases) {
    const CalibratedModel model(profile, *dataset);
    std::vector<std::vector<double>> state = {{model.base_accuracy()}};
    for (std::size_t a = 0; a < dataset->schema().size(); ++a) {
      state.push_back(model.group_offsets(a));
    }
    EXPECT_EQ(state, per_record_rounds(profile, *dataset,
                                       CalibrationConfig{}.calibration_rounds))
        << profile.name;
  }
}

TEST(CalibratedModel, ParameterCountFromProfile) {
  const CalibratedModel model(test_profile(), shared_dataset());
  EXPECT_EQ(model.parameter_count(), 1000000u);
}

class RhoSweep : public ::testing::TestWithParam<double> {};

TEST_P(RhoSweep, MarginalAccuracyIndependentOfRho) {
  // The copula changes the joint distribution across models, never the
  // marginal accuracy of a single model.
  CalibrationConfig config;
  config.copula_rho = GetParam();
  config.family_rho = 0.05;  // keep rho sum below 1 across the sweep
  const CalibratedModel model(test_profile(), shared_dataset(), config);
  std::size_t correct = 0;
  const std::size_t n = 8000;
  for (std::size_t i = 0; i < n; ++i) {
    if (model.is_correct(shared_dataset().record(i))) ++correct;
  }
  EXPECT_NEAR(static_cast<double>(correct) / n, 0.78, 0.025);
}

INSTANTIATE_TEST_SUITE_P(Rhos, RhoSweep,
                         ::testing::Values(0.0, 0.3, 0.62, 0.72, 0.9));

}  // namespace
}  // namespace muffin::models
