#include "core/score_cache.h"

#include <limits>
#include <string>
#include <utility>

#include "common/error.h"
#include "obs/metrics.h"
#include "tensor/ops.h"

namespace muffin::core {

namespace {

obs::Gauge& footprint_gauge() {
  static obs::Gauge& gauge = obs::registry().gauge("core.score_cache_bytes");
  return gauge;
}

}  // namespace

ScoreCache::ScoreCache(const models::ModelPool& pool,
                       const data::Dataset& dataset, tensor::QuantMode mode)
    : num_records_(dataset.size()),
      num_classes_(dataset.num_classes()),
      mode_(mode) {
  MUFFIN_REQUIRE(dataset.size() > 0, "score cache needs a non-empty dataset");
  score(pool, dataset.records());
}

ScoreCache::ScoreCache(const models::ModelPool& pool,
                       const data::Dataset& dataset,
                       std::span<const std::size_t> rows,
                       tensor::QuantMode mode)
    : num_records_(dataset.size()),
      num_classes_(dataset.num_classes()),
      mode_(mode) {
  MUFFIN_REQUIRE(!rows.empty(),
                 "a row-subset score cache needs at least one row");
  MUFFIN_REQUIRE(dataset.size() < std::numeric_limits<std::uint32_t>::max(),
                 "row-subset score cache index is 32-bit");
  slot_of_.assign(dataset.size(), 0);
  std::vector<data::Record> held;
  held.reserve(rows.size());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const std::size_t row = rows[k];
    MUFFIN_REQUIRE(row < dataset.size(), "score cache row out of range");
    MUFFIN_REQUIRE(slot_of_[row] == 0, "score cache rows must be distinct");
    slot_of_[row] = static_cast<std::uint32_t>(k + 1);
    held.push_back(dataset.record(row));
  }
  score(pool, held);
}

void ScoreCache::score(const models::ModelPool& pool,
                       std::span<const data::Record> records) {
  MUFFIN_REQUIRE(pool.size() > 0, "score cache needs a non-empty pool");
  MUFFIN_REQUIRE(num_classes_ <= 256,
                 "score cache stores predictions as one byte; datasets with "
                 "more than 256 classes are not supported");
  const std::size_t rows = records.size();
  predictions_.reserve(pool.size());
  scores_.reserve(pool.size());
  for (std::size_t m = 0; m < pool.size(); ++m) {
    const models::Model& model = pool.at(m);
    MUFFIN_REQUIRE(model.num_classes() == num_classes_,
                   "pool model class count must match dataset");
    // One batched scoring pass per model. Predictions are taken from the
    // full-precision scores before any quantization, so consensus — and
    // with it the serving fast path — is independent of the score
    // encoding.
    const tensor::Matrix score_matrix = model.score_batch(records);
    MUFFIN_REQUIRE(score_matrix.rows() == rows &&
                       score_matrix.cols() == num_classes_,
                   "model returned a malformed score matrix");
    std::vector<std::uint8_t> preds(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      preds[i] =
          static_cast<std::uint8_t>(tensor::argmax(score_matrix.row(i)));
    }
    // int8 scales are per class column: class score ranges differ (and a
    // single hot class must not flatten the others' grid).
    scores_.emplace_back(mode_, rows, num_classes_,
                         score_matrix.flat().data(), score_matrix.stride(),
                         /*col_stride=*/1);
    footprint_bytes_ += scores_.back().footprint_bytes() + preds.size();
    predictions_.push_back(std::move(preds));
  }
  footprint_bytes_ += slot_of_.size() * sizeof(std::uint32_t);
  footprint_gauge().add(static_cast<std::int64_t>(footprint_bytes_));
}

std::size_t ScoreCache::slot(std::size_t record) const {
  MUFFIN_REQUIRE(record < num_records_, "record index out of range");
  if (slot_of_.empty()) return record;
  const std::uint32_t held = slot_of_[record];
  MUFFIN_REQUIRE(held != 0, "record " + std::to_string(record) +
                                " is not held by this row-subset cache");
  return held - 1;
}

void ScoreCache::release_footprint() noexcept {
  if (footprint_bytes_ > 0) {
    footprint_gauge().sub(static_cast<std::int64_t>(footprint_bytes_));
    footprint_bytes_ = 0;
  }
}

ScoreCache::~ScoreCache() { release_footprint(); }

ScoreCache::ScoreCache(ScoreCache&& other) noexcept
    : num_records_(other.num_records_),
      num_classes_(other.num_classes_),
      mode_(other.mode_),
      footprint_bytes_(std::exchange(other.footprint_bytes_, 0)),
      scores_(std::move(other.scores_)),
      predictions_(std::move(other.predictions_)),
      slot_of_(std::move(other.slot_of_)) {}

ScoreCache& ScoreCache::operator=(ScoreCache&& other) noexcept {
  if (this == &other) return *this;
  release_footprint();
  num_records_ = other.num_records_;
  num_classes_ = other.num_classes_;
  mode_ = other.mode_;
  footprint_bytes_ = std::exchange(other.footprint_bytes_, 0);
  scores_ = std::move(other.scores_);
  predictions_ = std::move(other.predictions_);
  slot_of_ = std::move(other.slot_of_);
  return *this;
}

tensor::Matrix ScoreCache::scores_dense(std::size_t model) const {
  MUFFIN_REQUIRE(model < num_models(), "model index out of range");
  MUFFIN_REQUIRE(slot_of_.empty(),
                 "scores_dense needs an all-rows score cache");
  tensor::Matrix out(num_records_, num_classes_);
  scores_[model].decode(out.flat());
  return out;
}

std::size_t ScoreCache::prediction(std::size_t model,
                                   std::size_t record) const {
  MUFFIN_REQUIRE(model < num_models(), "model index out of range");
  return predictions_[model][slot(record)];
}

void ScoreCache::gather(std::span<const std::size_t> model_indices,
                        std::size_t record, std::span<double> out) const {
  const std::size_t row = slot(record);
  MUFFIN_REQUIRE(out.size() == model_indices.size() * num_classes_,
                 "gather output span has the wrong size");
  std::size_t cursor = 0;
  for (const std::size_t m : model_indices) {
    MUFFIN_REQUIRE(m < num_models(), "model index out of range");
    scores_[m].decode_row(row, out.subspan(cursor, num_classes_));
    cursor += num_classes_;
  }
}

bool ScoreCache::consensus(std::span<const std::size_t> model_indices,
                           std::size_t record,
                           std::size_t& consensus_class) const {
  MUFFIN_REQUIRE(!model_indices.empty(), "consensus needs at least one model");
  const std::size_t row = slot(record);
  MUFFIN_REQUIRE(model_indices[0] < num_models(),
                 "model index out of range");
  const std::uint8_t first = predictions_[model_indices[0]][row];
  for (const std::size_t m : model_indices.subspan(1)) {
    MUFFIN_REQUIRE(m < num_models(), "model index out of range");
    if (predictions_[m][row] != first) return false;
  }
  consensus_class = first;
  return true;
}

}  // namespace muffin::core
