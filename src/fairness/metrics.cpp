#include "fairness/metrics.h"

#include <cmath>

#include "common/error.h"

namespace muffin::fairness {

double FairnessReport::overall_unfairness(
    std::span<const std::string> names) const {
  double total = 0.0;
  if (names.empty()) {
    for (const AttributeFairness& attr : attributes) {
      total += attr.unfairness;
    }
    return total;
  }
  for (const std::string& name : names) {
    total += unfairness_for(name);
  }
  return total;
}

const AttributeFairness& FairnessReport::for_attribute(
    const std::string& name) const {
  for (const AttributeFairness& attr : attributes) {
    if (attr.attribute == name) return attr;
  }
  throw Error("report has no attribute named '" + name + "'");
}

double FairnessReport::unfairness_for(const std::string& name) const {
  return for_attribute(name).unfairness;
}

std::vector<std::size_t> labels(const data::Dataset& dataset) {
  std::vector<std::size_t> out(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    out[i] = dataset.record(i).label;
  }
  return out;
}

double accuracy(const data::Dataset& dataset,
                std::span<const std::size_t> predictions) {
  MUFFIN_REQUIRE(predictions.size() == dataset.size(),
                 "prediction count must match dataset size");
  MUFFIN_REQUIRE(dataset.size() > 0, "cannot evaluate an empty dataset");
  std::size_t correct = 0;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    if (predictions[i] == dataset.record(i).label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(dataset.size());
}

double unfairness_score(std::span<const double> group_accuracy,
                        std::span<const std::size_t> group_count,
                        double overall_accuracy) {
  MUFFIN_REQUIRE(group_accuracy.size() == group_count.size(),
                 "group accuracy/count size mismatch");
  double total = 0.0;
  for (std::size_t g = 0; g < group_accuracy.size(); ++g) {
    if (group_count[g] == 0) continue;
    total += std::abs(group_accuracy[g] - overall_accuracy);
  }
  return total;
}

GroupPartition::GroupPartition(const data::Dataset& dataset) {
  MUFFIN_REQUIRE(dataset.size() > 0, "cannot partition an empty dataset");
  size = dataset.size();
  labels.resize(size);
  const auto& schema = dataset.schema();
  attributes.resize(schema.size());
  for (std::size_t a = 0; a < schema.size(); ++a) {
    attributes[a].name = schema[a].name;
    attributes[a].group_of.resize(size);
    attributes[a].group_count.assign(schema[a].group_count(), 0);
  }
  for (std::size_t i = 0; i < size; ++i) {
    const data::Record& record = dataset.record(i);
    labels[i] = record.label;
    for (std::size_t a = 0; a < schema.size(); ++a) {
      attributes[a].group_of[i] = record.groups[a];
      ++attributes[a].group_count[record.groups[a]];
    }
  }
}

FairnessReport evaluate_predictions(const GroupPartition& partition,
                                    std::span<const std::size_t> predictions) {
  MUFFIN_REQUIRE(predictions.size() == partition.size,
                 "prediction count must match partition size");
  FairnessReport report;
  std::size_t correct_total = 0;
  for (std::size_t i = 0; i < partition.size; ++i) {
    if (predictions[i] == partition.labels[i]) ++correct_total;
  }
  report.accuracy = static_cast<double>(correct_total) /
                    static_cast<double>(partition.size);

  report.attributes.resize(partition.attributes.size());
  for (std::size_t a = 0; a < partition.attributes.size(); ++a) {
    const GroupPartition::Attribute& source = partition.attributes[a];
    AttributeFairness& attr = report.attributes[a];
    attr.attribute = source.name;
    attr.group_accuracy.assign(source.group_count.size(), 0.0);
    attr.group_count = source.group_count;
    // Sums of 1.0 are exact integers until the one division per group.
    for (std::size_t i = 0; i < partition.size; ++i) {
      if (predictions[i] == partition.labels[i]) {
        attr.group_accuracy[source.group_of[i]] += 1.0;
      }
    }
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

FairnessReport evaluate_predictions(const data::Dataset& dataset,
                                    std::span<const std::size_t> predictions) {
  return evaluate_predictions(GroupPartition(dataset), predictions);
}

FairnessReport evaluate_model(const models::Model& model,
                              const data::Dataset& dataset) {
  return evaluate_predictions(dataset, model.predict_all(dataset));
}

double relative_improvement(double old_value, double new_value) {
  if (old_value == 0.0) return 0.0;
  return (old_value - new_value) / old_value;
}

std::vector<std::size_t> detect_unprivileged(const AttributeFairness& attribute,
                                             double overall_accuracy,
                                             double margin) {
  std::vector<std::size_t> groups;
  for (std::size_t g = 0; g < attribute.group_accuracy.size(); ++g) {
    if (attribute.group_count[g] == 0) continue;
    if (attribute.group_accuracy[g] < overall_accuracy - margin) {
      groups.push_back(g);
    }
  }
  return groups;
}

}  // namespace muffin::fairness
