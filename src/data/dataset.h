// Dataset representation.
//
// Records carry everything the framework consumes: the class label, the
// group id under every sensitive attribute, a synthetic feature vector (for
// the trainable-classifier substrate) and a latent per-sample `difficulty`.
// The difficulty is the shared factor of the Gaussian copula that the
// calibrated off-the-shelf models use — it models "this lesion is
// intrinsically ambiguous", which is what makes model errors correlate
// across architectures (paper Fig. 3). See data/generators.h and
// models/calibrated.h.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/attribute.h"

namespace muffin::data {

/// One labelled sample.
struct Record {
  std::uint64_t uid = 0;            ///< stable id (idiosyncratic model noise)
  std::size_t label = 0;            ///< class id in [0, num_classes)
  std::vector<std::size_t> groups;  ///< group id per attribute
  double difficulty = 0.0;          ///< shared copula factor, ~N(0,1)
  std::vector<double> features;     ///< synthetic feature vector
};

/// Train/validation/test index partition.
struct SplitIndices {
  std::vector<std::size_t> train;
  std::vector<std::size_t> validation;
  std::vector<std::size_t> test;
};

/// A labelled dataset with sensitive-attribute structure.
class Dataset {
 public:
  Dataset() = default;
  Dataset(std::string name, std::size_t num_classes,
          std::vector<AttributeSchema> schema);

  void add_record(Record record);
  void reserve(std::size_t n);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t num_classes() const { return num_classes_; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] const std::vector<AttributeSchema>& schema() const {
    return schema_;
  }
  [[nodiscard]] const Record& record(std::size_t i) const;
  [[nodiscard]] const std::vector<Record>& records() const { return records_; }

  /// Mark which groups of an attribute are unprivileged (scenario ground
  /// truth set by the generator; detection from model accuracy lives in the
  /// fairness module).
  void set_unprivileged(std::size_t attribute,
                        std::vector<bool> unprivileged_groups);
  [[nodiscard]] bool is_unprivileged(std::size_t attribute,
                                     std::size_t group) const;
  /// Group ids flagged unprivileged for one attribute.
  [[nodiscard]] std::vector<std::size_t> unprivileged_groups(
      std::size_t attribute) const;

  /// Indices of records in group `group` of attribute `attribute`.
  [[nodiscard]] std::vector<std::size_t> group_indices(
      std::size_t attribute, std::size_t group) const;
  /// Number of records per group for one attribute.
  [[nodiscard]] std::vector<std::size_t> group_sizes(
      std::size_t attribute) const;
  /// Number of records per class.
  [[nodiscard]] std::vector<std::size_t> class_sizes() const;

  /// Random stratification-free split by fractions (paper: 64/16/20).
  [[nodiscard]] SplitIndices split(double train_fraction,
                                   double validation_fraction,
                                   SplitRng& rng) const;

  /// Materialize a subset as a standalone Dataset (keeps schema/metadata).
  [[nodiscard]] Dataset subset(std::span<const std::size_t> indices,
                               const std::string& suffix) const;

 private:
  std::string name_;
  std::size_t num_classes_ = 0;
  std::vector<AttributeSchema> schema_;
  std::vector<std::vector<bool>> unprivileged_;
  std::vector<Record> records_;
};

}  // namespace muffin::data
