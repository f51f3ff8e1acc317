// Fairness metrics (paper §3.1).
//
// Accuracy A(f', D) is the fraction of correct classifications. For an
// attribute a_k partitioning D into groups D_1..D_G, the unfairness score is
//   U(f', D)_{a_k} = Σ_g |A(f', D_g) − A(f', D)|        (L1 definition)
// and the multi-dimensional unfairness is U = Σ_k U_{a_k} (Eq. 1).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "models/model.h"

namespace muffin::fairness {

/// Per-attribute fairness breakdown.
struct AttributeFairness {
  std::string attribute;
  std::vector<double> group_accuracy;     ///< A(f', D_g); 0 for empty groups
  std::vector<std::size_t> group_count;   ///< |D_g|
  double unfairness = 0.0;                ///< U(f', D)_{a_k}
};

/// Full fairness evaluation of one model (or fused system) on one dataset.
struct FairnessReport {
  double accuracy = 0.0;
  std::vector<AttributeFairness> attributes;

  /// Multi-dimensional unfairness U = Σ_k U_{a_k} over the attributes in
  /// `names` (all attributes when empty).
  [[nodiscard]] double overall_unfairness(
      std::span<const std::string> names = {}) const;
  [[nodiscard]] const AttributeFairness& for_attribute(
      const std::string& name) const;
  [[nodiscard]] double unfairness_for(const std::string& name) const;
};

/// True labels of a dataset, aligned with record indices.
[[nodiscard]] std::vector<std::size_t> labels(const data::Dataset& dataset);

/// Overall accuracy of a prediction vector.
[[nodiscard]] double accuracy(const data::Dataset& dataset,
                              std::span<const std::size_t> predictions);

/// Unfairness score from per-group accuracies/counts and overall accuracy.
/// Groups with zero count are skipped.
[[nodiscard]] double unfairness_score(std::span<const double> group_accuracy,
                                      std::span<const std::size_t> group_count,
                                      double overall_accuracy);

/// Prediction-independent group structure of a dataset, precomputed once
/// and reused across many evaluations: per-record labels, per-attribute
/// flat record->group index arrays, and the (static) per-group counts.
/// MuffinSearch builds one per eval split so every candidate-structure
/// episode only accumulates correctness numerators over flat arrays
/// instead of re-walking Record structs and re-counting group membership.
/// It is the one layout every fairness report is accumulated over.
struct GroupPartition {
  explicit GroupPartition(const data::Dataset& dataset);

  struct Attribute {
    std::string name;
    std::vector<std::size_t> group_of;     ///< record index -> group index
    std::vector<std::size_t> group_count;  ///< |D_g| (prediction-free)
  };

  std::size_t size = 0;                  ///< record count
  std::vector<std::size_t> labels;       ///< record index -> true label
  std::vector<Attribute> attributes;
};

/// Evaluate a prediction vector against a precomputed partition.
[[nodiscard]] FairnessReport evaluate_predictions(
    const GroupPartition& partition, std::span<const std::size_t> predictions);

/// Evaluate a prediction vector on every attribute of the dataset:
/// evaluate_predictions(GroupPartition(dataset), predictions).
[[nodiscard]] FairnessReport evaluate_predictions(
    const data::Dataset& dataset, std::span<const std::size_t> predictions);

/// Evaluate a model (runs predict on every record).
[[nodiscard]] FairnessReport evaluate_model(const models::Model& model,
                                            const data::Dataset& dataset);

/// Relative improvement of an unfairness score: (old − new) / old.
/// Positive = fairer. Returns 0 when old == 0.
[[nodiscard]] double relative_improvement(double old_value, double new_value);

/// Detect unprivileged groups from a report: groups whose accuracy is below
/// the overall accuracy by more than `margin` (used when scenario ground
/// truth is unavailable).
[[nodiscard]] std::vector<std::size_t> detect_unprivileged(
    const AttributeFairness& attribute, double overall_accuracy,
    double margin = 0.0);

}  // namespace muffin::fairness
