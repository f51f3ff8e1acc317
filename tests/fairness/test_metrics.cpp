#include "fairness/metrics.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "data/generators.h"
#include "models/pool.h"

namespace muffin::fairness {
namespace {

data::Dataset two_group_dataset() {
  // 4 records in group A (labels 0), 4 in group B (labels 1).
  data::Dataset ds("toy", 2, {{"g", {"A", "B"}}});
  for (std::size_t i = 0; i < 8; ++i) {
    data::Record r;
    r.uid = i;
    r.label = i < 4 ? 0 : 1;
    r.groups = {i < 4 ? std::size_t{0} : std::size_t{1}};
    ds.add_record(r);
  }
  return ds;
}

TEST(Accuracy, CountsMatches) {
  const data::Dataset ds = two_group_dataset();
  // Predict all zeros: first four correct.
  const std::vector<std::size_t> preds(8, 0);
  EXPECT_DOUBLE_EQ(accuracy(ds, preds), 0.5);
}

TEST(Accuracy, RejectsSizeMismatch) {
  const data::Dataset ds = two_group_dataset();
  const std::vector<std::size_t> preds(7, 0);
  EXPECT_THROW((void)accuracy(ds, preds), Error);
}

TEST(Labels, AlignedWithRecords) {
  const data::Dataset ds = two_group_dataset();
  const auto ls = labels(ds);
  ASSERT_EQ(ls.size(), 8u);
  EXPECT_EQ(ls[0], 0u);
  EXPECT_EQ(ls[7], 1u);
}

TEST(UnfairnessScore, L1Definition) {
  // U = Σ_g |A_g − A|; groups: acc 1.0 and 0.0, overall 0.5 → U = 1.0.
  const std::vector<double> group_acc = {1.0, 0.0};
  const std::vector<std::size_t> counts = {4, 4};
  EXPECT_DOUBLE_EQ(unfairness_score(group_acc, counts, 0.5), 1.0);
}

TEST(UnfairnessScore, PerfectlyFairIsZero) {
  const std::vector<double> group_acc = {0.8, 0.8, 0.8};
  const std::vector<std::size_t> counts = {10, 20, 30};
  EXPECT_DOUBLE_EQ(unfairness_score(group_acc, counts, 0.8), 0.0);
}

TEST(UnfairnessScore, EmptyGroupsSkipped) {
  const std::vector<double> group_acc = {0.9, 0.0, 0.7};
  const std::vector<std::size_t> counts = {10, 0, 10};
  EXPECT_DOUBLE_EQ(unfairness_score(group_acc, counts, 0.8),
                   0.1 + 0.1);  // middle group ignored
}

TEST(EvaluatePredictions, FullReport) {
  const data::Dataset ds = two_group_dataset();
  // Group A all correct, group B all wrong.
  std::vector<std::size_t> preds(8, 0);
  const FairnessReport report = evaluate_predictions(ds, preds);
  EXPECT_DOUBLE_EQ(report.accuracy, 0.5);
  const AttributeFairness& g = report.for_attribute("g");
  EXPECT_DOUBLE_EQ(g.group_accuracy[0], 1.0);
  EXPECT_DOUBLE_EQ(g.group_accuracy[1], 0.0);
  EXPECT_EQ(g.group_count[0], 4u);
  EXPECT_DOUBLE_EQ(g.unfairness, 1.0);
  EXPECT_DOUBLE_EQ(report.overall_unfairness(), 1.0);
}

TEST(FairnessReport, OverallUnfairnessSelectsAttributes) {
  const data::Dataset ds = data::synthetic_isic2019(2000, 3);
  std::vector<std::size_t> preds(ds.size(), 1);  // predict the modal class
  const FairnessReport report = evaluate_predictions(ds, preds);
  const std::vector<std::string> pair = {"age", "site"};
  EXPECT_NEAR(report.overall_unfairness(pair),
              report.unfairness_for("age") + report.unfairness_for("site"),
              1e-12);
  // Default (empty) covers all three attributes.
  EXPECT_GE(report.overall_unfairness(), report.overall_unfairness(pair));
}

TEST(FairnessReport, UnknownAttributeThrows) {
  const data::Dataset ds = two_group_dataset();
  const std::vector<std::size_t> preds(8, 0);
  const FairnessReport report = evaluate_predictions(ds, preds);
  EXPECT_THROW((void)report.for_attribute("skin_tone"), Error);
}

TEST(RelativeImprovement, SignsAndZeroGuard) {
  EXPECT_NEAR(relative_improvement(0.36, 0.29), 0.1944, 1e-3);  // Table I
  EXPECT_LT(relative_improvement(0.45, 0.49), 0.0);
  EXPECT_DOUBLE_EQ(relative_improvement(0.0, 0.5), 0.0);
}

TEST(DetectUnprivileged, FindsBelowAverageGroups) {
  AttributeFairness attr;
  attr.attribute = "age";
  attr.group_accuracy = {0.9, 0.5, 0.8, 0.0};
  attr.group_count = {10, 10, 10, 0};  // last group empty -> skipped
  const auto groups = detect_unprivileged(attr, 0.8);
  EXPECT_EQ(groups, (std::vector<std::size_t>{1}));
}

TEST(DetectUnprivileged, MarginWidensTheBar) {
  AttributeFairness attr;
  attr.attribute = "age";
  attr.group_accuracy = {0.78, 0.70};
  attr.group_count = {10, 10};
  EXPECT_EQ(detect_unprivileged(attr, 0.8).size(), 2u);
  EXPECT_EQ(detect_unprivileged(attr, 0.8, 0.05).size(), 1u);
}

/// The per-record walk the Dataset overload ran before it delegated to
/// GroupPartition: 0.0/1.0 correctness summed per group in ascending
/// record order, then one division per group.
FairnessReport per_record_oracle(const data::Dataset& ds,
                                 std::span<const std::size_t> predictions) {
  FairnessReport report;
  report.accuracy = accuracy(ds, predictions);
  for (const data::AttributeSchema& attribute : ds.schema()) {
    AttributeFairness attr;
    attr.attribute = attribute.name;
    attr.group_accuracy.assign(attribute.group_count(), 0.0);
    attr.group_count.assign(attribute.group_count(), 0);
    report.attributes.push_back(std::move(attr));
  }
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const data::Record& record = ds.record(i);
    const double correct = predictions[i] == record.label ? 1.0 : 0.0;
    for (std::size_t a = 0; a < report.attributes.size(); ++a) {
      report.attributes[a].group_accuracy[record.groups[a]] += correct;
      ++report.attributes[a].group_count[record.groups[a]];
    }
  }
  for (AttributeFairness& attr : report.attributes) {
    for (std::size_t g = 0; g < attr.group_accuracy.size(); ++g) {
      if (attr.group_count[g] > 0) {
        attr.group_accuracy[g] /= static_cast<double>(attr.group_count[g]);
      }
    }
    attr.unfairness = unfairness_score(attr.group_accuracy, attr.group_count,
                                       report.accuracy);
  }
  return report;
}

TEST(GroupPartition, ReportBitIdenticalToDatasetOverload) {
  // Every report is accumulated over the precomputed partition (the
  // Dataset overload builds one); both overloads must stay bit-identical
  // to the per-record walk above.
  const data::Dataset ds = data::synthetic_isic2019(1200, 7);
  const auto pool = models::calibrated_isic_pool(ds);
  const GroupPartition partition(ds);

  ASSERT_EQ(partition.size, ds.size());
  ASSERT_EQ(partition.attributes.size(), ds.schema().size());
  for (std::size_t a = 0; a < partition.attributes.size(); ++a) {
    EXPECT_EQ(partition.attributes[a].name, ds.schema()[a].name);
  }

  for (const std::size_t model_index : {std::size_t{0}, std::size_t{3}}) {
    const auto predictions = pool.at(model_index).predict_all(ds);
    const FairnessReport expected = per_record_oracle(ds, predictions);
    for (const FairnessReport& actual :
         {evaluate_predictions(partition, predictions),
          evaluate_predictions(ds, predictions)}) {
      ASSERT_EQ(actual.attributes.size(), expected.attributes.size());
      EXPECT_EQ(actual.accuracy, expected.accuracy);
      for (std::size_t a = 0; a < expected.attributes.size(); ++a) {
        EXPECT_EQ(actual.attributes[a].attribute,
                  expected.attributes[a].attribute);
        EXPECT_EQ(actual.attributes[a].group_count,
                  expected.attributes[a].group_count);
        EXPECT_EQ(actual.attributes[a].group_accuracy,
                  expected.attributes[a].group_accuracy);
        EXPECT_EQ(actual.attributes[a].unfairness,
                  expected.attributes[a].unfairness);
      }
    }
  }
}

TEST(GroupPartition, RejectsMismatchedPredictionCount) {
  const data::Dataset ds = data::synthetic_isic2019(200, 9);
  const GroupPartition partition(ds);
  const std::vector<std::size_t> short_predictions(ds.size() - 1, 0);
  EXPECT_THROW((void)evaluate_predictions(partition, short_predictions),
               Error);
}

TEST(EvaluateModel, AgreesWithPredictAll) {
  const data::Dataset ds = data::synthetic_isic2019(1500, 5);
  const auto pool = models::calibrated_isic_pool(ds);
  const models::Model& model = pool.at(0);
  const FairnessReport via_model = evaluate_model(model, ds);
  const FairnessReport via_preds =
      evaluate_predictions(ds, model.predict_all(ds));
  EXPECT_DOUBLE_EQ(via_model.accuracy, via_preds.accuracy);
  EXPECT_DOUBLE_EQ(via_model.overall_unfairness(),
                   via_preds.overall_unfairness());
}

}  // namespace
}  // namespace muffin::fairness
