#include "models/pool.h"

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <string>
#include <string_view>

#include "common/error.h"
#include "common/rng.h"
#include "data/generators.h"
#include "models/trainable.h"

namespace muffin::models {
namespace {

const data::Dataset& pool_dataset() {
  static const data::Dataset ds = data::synthetic_isic2019(3000, 41);
  return ds;
}

TEST(ModelPool, IsicFactoryBuildsAllProfiles) {
  const ModelPool pool = calibrated_isic_pool(pool_dataset());
  EXPECT_EQ(pool.size(), isic2019_profiles().size());
  EXPECT_EQ(pool.names().size(), pool.size());
}

TEST(ModelPool, FitzpatrickFactoryBuildsAllProfiles) {
  const data::Dataset ds = data::synthetic_fitzpatrick17k(2000, 5);
  const ModelPool pool = calibrated_fitzpatrick_pool(ds);
  EXPECT_EQ(pool.size(), fitzpatrick17k_profiles().size());
}

TEST(ModelPool, LookupByNameAndIndex) {
  const ModelPool pool = calibrated_isic_pool(pool_dataset());
  const std::size_t idx = pool.index_of("ResNet-18");
  EXPECT_EQ(pool.at(idx).name(), "ResNet-18");
  EXPECT_EQ(pool.by_name("DenseNet121").name(), "DenseNet121");
  EXPECT_EQ(pool.share(idx)->name(), "ResNet-18");
}

TEST(ModelPool, UnknownNameThrows) {
  const ModelPool pool = calibrated_isic_pool(pool_dataset());
  EXPECT_THROW((void)pool.by_name("VGG-16"), Error);
  EXPECT_THROW((void)pool.index_of("VGG-16"), Error);
}

TEST(ModelPool, IndexOutOfRangeThrows) {
  const ModelPool pool = calibrated_isic_pool(pool_dataset());
  EXPECT_THROW((void)pool.at(pool.size()), Error);
  EXPECT_THROW((void)pool.share(pool.size()), Error);
}

TEST(ModelPool, RejectsNullAndDuplicates) {
  ModelPool pool;
  EXPECT_THROW(pool.add(nullptr), Error);
  auto model = std::make_shared<TrainableClassifier>("dup", pool_dataset());
  pool.add(model);
  auto clone = std::make_shared<TrainableClassifier>("dup", pool_dataset());
  EXPECT_THROW(pool.add(clone), Error);
}

TEST(ModelPool, RejectsClassCountMismatch) {
  ModelPool pool;
  pool.add(std::make_shared<TrainableClassifier>("eight", pool_dataset()));
  const data::Dataset nine = data::synthetic_fitzpatrick17k(500, 1);
  EXPECT_THROW(
      pool.add(std::make_shared<TrainableClassifier>("nine", nine)), Error);
}

TEST(ModelPool, MixedCalibratedAndTrainable) {
  // The pool is polymorphic: users can mix simulated and real models.
  ModelPool pool = calibrated_isic_pool(pool_dataset());
  const std::size_t before = pool.size();
  auto trained =
      std::make_shared<TrainableClassifier>("MyClassifier", pool_dataset());
  trained->fit(pool_dataset());
  pool.add(trained);
  EXPECT_EQ(pool.size(), before + 1);
  EXPECT_EQ(pool.by_name("MyClassifier").num_classes(), 8u);
}

// ---------------------------------------------------------------------
// PoolCalibration: the pool factories calibrate every model against one
// shared CalibrationWalk.
// ---------------------------------------------------------------------

/// ISIC with the smaller gender group flagged unprivileged as well, so
/// all three attributes take part (tests/integration's scenario).
const data::Dataset& three_attribute_dataset() {
  static const data::Dataset ds = [] {
    data::Dataset full = data::synthetic_isic2019(3000, 211);
    const std::size_t gender = data::attribute_index(full.schema(), "gender");
    const std::vector<std::size_t> sizes = full.group_sizes(gender);
    std::vector<bool> flags(2, false);
    flags[sizes[0] < sizes[1] ? 0 : 1] = true;
    full.set_unprivileged(gender, flags);
    return full;
  }();
  return ds;
}

const data::Dataset& fitzpatrick_dataset() {
  static const data::Dataset ds = data::synthetic_fitzpatrick17k(2000, 5);
  return ds;
}

std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

std::uint64_t score_batch_digest(const Model& model,
                                 const data::Dataset& dataset) {
  const tensor::Matrix scores = model.score_batch(dataset.records());
  const std::span<const double> flat = scores.flat();
  return fnv1a64(std::string_view(reinterpret_cast<const char*>(flat.data()),
                                  flat.size_bytes()));
}

/// Every model of `pool` equals, bit for bit, the model its profile gives
/// when calibrated alone against `dataset`.
void expect_equals_per_dataset_models(
    const ModelPool& pool, const std::vector<ArchitectureProfile>& profiles,
    const data::Dataset& dataset) {
  ASSERT_EQ(pool.size(), profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const auto& shared = dynamic_cast<const CalibratedModel&>(pool.at(i));
    const CalibratedModel alone(profiles[i], dataset);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(shared.base_accuracy()),
              std::bit_cast<std::uint64_t>(alone.base_accuracy()))
        << profiles[i].name;
    for (std::size_t a = 0; a < dataset.schema().size(); ++a) {
      EXPECT_EQ(bits(shared.group_offsets(a)), bits(alone.group_offsets(a)))
          << profiles[i].name << " attribute " << a;
    }
    EXPECT_EQ(score_batch_digest(shared, dataset),
              score_batch_digest(alone, dataset))
        << profiles[i].name;
  }
}

TEST(PoolCalibration, IsicPoolEqualsPerDatasetModels) {
  expect_equals_per_dataset_models(calibrated_isic_pool(pool_dataset()),
                                   isic2019_profiles(), pool_dataset());
}

TEST(PoolCalibration, FitzpatrickPoolEqualsPerDatasetModels) {
  expect_equals_per_dataset_models(
      calibrated_fitzpatrick_pool(fitzpatrick_dataset()),
      fitzpatrick17k_profiles(), fitzpatrick_dataset());
}

TEST(PoolCalibration, ThreeAttributePoolEqualsPerDatasetModels) {
  expect_equals_per_dataset_models(
      calibrated_isic_pool(three_attribute_dataset()), isic2019_profiles(),
      three_attribute_dataset());
}

/// 3,200 records over 40 x 40 groups, each combination twice: about as
/// many cells as the walk's table has slots over two, so tuples that share
/// a slot chain (and a first group) are common.
data::Dataset dense_cell_dataset() {
  std::vector<std::string> names;
  for (int g = 0; g < 40; ++g) names.push_back(std::to_string(g));
  data::Dataset dataset("dense", 2, {{"first", names}, {"second", names}});
  for (std::size_t i = 0; i < 3200; ++i) {
    data::Record record;
    record.uid = i;
    record.label = i % 2;
    record.groups = {i % 40, (i / 40) % 40};
    dataset.add_record(std::move(record));
  }
  return dataset;
}

TEST(PoolCalibration, WalkCellsAreTheDistinctGroupCombinations) {
  const data::Dataset dense = dense_cell_dataset();
  for (const data::Dataset* dataset : {&pool_dataset(), &fitzpatrick_dataset(),
                                       &three_attribute_dataset(), &dense}) {
    const CalibrationWalk walk(*dataset);
    const std::size_t attributes = dataset->schema().size();
    EXPECT_EQ(walk.dataset, dataset);
    EXPECT_EQ(walk.class_sizes, dataset->class_sizes());
    for (std::size_t a = 0; a < attributes; ++a) {
      EXPECT_EQ(walk.group_sizes[a], dataset->group_sizes(a));
    }
    ASSERT_EQ(walk.record_cells.size(), dataset->size());
    ASSERT_EQ(walk.cell_groups.size() % attributes, 0u);
    const std::size_t cells = walk.cell_groups.size() / attributes;
    EXPECT_LE(cells, dataset->size());
    // Ids in order of first appearance; each record's cell holds its
    // groups; no two cells hold the same groups.
    std::size_t seen = 0;
    for (std::size_t i = 0; i < dataset->size(); ++i) {
      const std::size_t cell = walk.record_cells[i];
      ASSERT_LE(cell, seen) << "record " << i;
      if (cell == seen) ++seen;
      const std::vector<std::size_t> groups(
          walk.cell_groups.begin() + cell * attributes,
          walk.cell_groups.begin() + (cell + 1) * attributes);
      ASSERT_EQ(groups, dataset->record(i).groups) << "record " << i;
    }
    EXPECT_EQ(seen, cells);
    std::set<std::vector<std::size_t>> distinct;
    for (std::size_t c = 0; c < cells; ++c) {
      distinct.emplace(walk.cell_groups.begin() + c * attributes,
                       walk.cell_groups.begin() + (c + 1) * attributes);
    }
    EXPECT_EQ(distinct.size(), cells);
  }
}

}  // namespace
}  // namespace muffin::models
