#include "core/score_cache.h"

#include <limits>
#include <memory>
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

struct ScoreCache::Column {
  tensor::QuantMatrix scores;  ///< held rows x classes, in the cache's mode
  std::vector<std::uint8_t> predictions;  ///< argmax before quantization
};

ScoreCache::ScoreCache(const models::ModelPool& pool,
                       const data::Dataset& dataset, tensor::QuantMode mode)
    : num_records_(dataset.size()),
      num_classes_(dataset.num_classes()),
      mode_(mode),
      records_(dataset.records()) {
  MUFFIN_REQUIRE(dataset.size() > 0, "score cache needs a non-empty dataset");
  bind(pool);
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
  held_.reserve(rows.size());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const std::size_t row = rows[k];
    MUFFIN_REQUIRE(row < dataset.size(), "score cache row out of range");
    MUFFIN_REQUIRE(slot_of_[row] == 0, "score cache rows must be distinct");
    slot_of_[row] = static_cast<std::uint32_t>(k + 1);
    held_.push_back(dataset.record(row));
  }
  records_ = held_;
  bind(pool);
}

void ScoreCache::bind(const models::ModelPool& pool) {
  MUFFIN_REQUIRE(pool.size() > 0, "score cache needs a non-empty pool");
  MUFFIN_REQUIRE(num_classes_ <= 256,
                 "score cache stores predictions as one byte; datasets with "
                 "more than 256 classes are not supported");
  models_.reserve(pool.size());
  for (std::size_t m = 0; m < pool.size(); ++m) {
    MUFFIN_REQUIRE(pool.at(m).num_classes() == num_classes_,
                   "pool model class count must match dataset");
    models_.push_back(pool.share(m));
  }
  columns_ = std::vector<std::atomic<const Column*>>(pool.size());
  footprint_bytes_ = slot_of_.size() * sizeof(std::uint32_t);
  footprint_gauge().add(static_cast<std::int64_t>(footprint_bytes_));
}

const ScoreCache::Column& ScoreCache::column(std::size_t model) const {
  MUFFIN_REQUIRE(model < num_models(), "model index out of range");
  std::atomic<const Column*>& published = columns_[model];
  if (const Column* col = published.load()) {
    return *col;
  }
  // First read: score the column on this thread. One batched scoring
  // pass over the held rows. Predictions are taken from the
  // full-precision scores before any quantization, so consensus — and
  // with it the serving fast path — is independent of the score
  // encoding.
  const std::size_t rows = records_.size();
  const tensor::Matrix score_matrix = models_[model]->score_batch(records_);
  MUFFIN_REQUIRE(score_matrix.rows() == rows &&
                     score_matrix.cols() == num_classes_,
                 "model returned a malformed score matrix");
  std::vector<std::uint8_t> preds(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    preds[i] = static_cast<std::uint8_t>(tensor::argmax(score_matrix.row(i)));
  }
  // int8 scales are per class column: class score ranges differ (and a
  // single hot class must not flatten the others' grid).
  auto scored = std::make_unique<const Column>(
      Column{tensor::QuantMatrix(mode_, rows, num_classes_,
                                 score_matrix.flat().data(),
                                 score_matrix.stride(), /*col_stride=*/1),
             std::move(preds)});
  // Publish without waiting. A reader that lost the race returns the
  // winner's column and frees its own, which holds the same bits.
  const Column* expected = nullptr;
  if (!published.compare_exchange_strong(expected, scored.get())) {
    return *expected;
  }
  const std::size_t bytes =
      scored->scores.footprint_bytes() + scored->predictions.size();
  footprint_bytes_ += bytes;
  footprint_gauge().add(static_cast<std::int64_t>(bytes));
  return *scored.release();
}

void ScoreCache::score_all() {
  for (std::size_t m = 0; m < num_models(); ++m) (void)column(m);
  // Every column is published, so the records are never read again.
  records_ = {};
  std::vector<data::Record>().swap(held_);
}

std::size_t ScoreCache::slot(std::size_t record) const {
  MUFFIN_REQUIRE(record < num_records_, "record index out of range");
  if (slot_of_.empty()) return record;
  const std::uint32_t held = slot_of_[record];
  MUFFIN_REQUIRE(held != 0, "record " + std::to_string(record) +
                                " is not held by this row-subset cache");
  return held - 1;
}

void ScoreCache::release() noexcept {
  for (std::atomic<const Column*>& published : columns_) {
    delete published.load();
  }
  columns_.clear();
  if (const std::size_t bytes = footprint_bytes_.exchange(0); bytes > 0) {
    footprint_gauge().sub(static_cast<std::int64_t>(bytes));
  }
}

ScoreCache::~ScoreCache() { release(); }

ScoreCache::ScoreCache(ScoreCache&& other) noexcept
    : num_records_(other.num_records_),
      num_classes_(other.num_classes_),
      mode_(other.mode_),
      models_(std::move(other.models_)),
      records_(std::exchange(other.records_, {})),
      held_(std::move(other.held_)),
      columns_(std::exchange(other.columns_, {})),
      footprint_bytes_(other.footprint_bytes_.exchange(0)),
      slot_of_(std::move(other.slot_of_)) {}

ScoreCache& ScoreCache::operator=(ScoreCache&& other) noexcept {
  if (this == &other) return *this;
  release();
  num_records_ = other.num_records_;
  num_classes_ = other.num_classes_;
  mode_ = other.mode_;
  models_ = std::move(other.models_);
  records_ = std::exchange(other.records_, {});
  held_ = std::move(other.held_);
  columns_ = std::exchange(other.columns_, {});
  footprint_bytes_ = other.footprint_bytes_.exchange(0);
  slot_of_ = std::move(other.slot_of_);
  return *this;
}

tensor::Matrix ScoreCache::scores_dense(std::size_t model) const {
  MUFFIN_REQUIRE(slot_of_.empty(),
                 "scores_dense needs an all-rows score cache");
  const Column& col = column(model);
  tensor::Matrix out(num_records_, num_classes_);
  col.scores.decode(out.flat());
  return out;
}

std::size_t ScoreCache::prediction(std::size_t model,
                                   std::size_t record) const {
  const std::size_t row = slot(record);
  return column(model).predictions[row];
}

void ScoreCache::gather(std::span<const std::size_t> model_indices,
                        std::size_t record, std::span<double> out) const {
  const std::size_t row = slot(record);
  MUFFIN_REQUIRE(out.size() == model_indices.size() * num_classes_,
                 "gather output span has the wrong size");
  std::size_t cursor = 0;
  for (const std::size_t m : model_indices) {
    column(m).scores.decode_row(row, out.subspan(cursor, num_classes_));
    cursor += num_classes_;
  }
}

bool ScoreCache::consensus(std::span<const std::size_t> model_indices,
                           std::size_t record,
                           std::size_t& consensus_class) const {
  MUFFIN_REQUIRE(!model_indices.empty(), "consensus needs at least one model");
  const std::size_t row = slot(record);
  const std::uint8_t first = column(model_indices[0]).predictions[row];
  for (const std::size_t m : model_indices.subspan(1)) {
    if (column(m).predictions[row] != first) return false;
  }
  consensus_class = first;
  return true;
}

}  // namespace muffin::core
