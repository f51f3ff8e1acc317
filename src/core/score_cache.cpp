#include "core/score_cache.h"

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
  MUFFIN_REQUIRE(pool.size() > 0, "score cache needs a non-empty pool");
  MUFFIN_REQUIRE(dataset.size() > 0, "score cache needs a non-empty dataset");
  MUFFIN_REQUIRE(num_classes_ <= 256,
                 "score cache stores predictions as one byte; datasets with "
                 "more than 256 classes are not supported");
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
    const tensor::Matrix score_matrix = model.score_batch(dataset.records());
    MUFFIN_REQUIRE(score_matrix.rows() == num_records_ &&
                       score_matrix.cols() == num_classes_,
                   "model returned a malformed score matrix");
    std::vector<std::uint8_t> preds(num_records_);
    for (std::size_t i = 0; i < num_records_; ++i) {
      preds[i] =
          static_cast<std::uint8_t>(tensor::argmax(score_matrix.row(i)));
    }
    // int8 scales are per class column: class score ranges differ (and a
    // single hot class must not flatten the others' grid).
    scores_.emplace_back(mode_, num_records_, num_classes_,
                         score_matrix.flat().data(), score_matrix.stride(),
                         /*col_stride=*/1);
    footprint_bytes_ += scores_.back().footprint_bytes() + preds.size();
    predictions_.push_back(std::move(preds));
  }
  footprint_gauge().add(static_cast<std::int64_t>(footprint_bytes_));
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
      predictions_(std::move(other.predictions_)) {}

ScoreCache& ScoreCache::operator=(ScoreCache&& other) noexcept {
  if (this == &other) return *this;
  release_footprint();
  num_records_ = other.num_records_;
  num_classes_ = other.num_classes_;
  mode_ = other.mode_;
  footprint_bytes_ = std::exchange(other.footprint_bytes_, 0);
  scores_ = std::move(other.scores_);
  predictions_ = std::move(other.predictions_);
  return *this;
}

tensor::Matrix ScoreCache::scores_dense(std::size_t model) const {
  MUFFIN_REQUIRE(model < num_models(), "model index out of range");
  tensor::Matrix out(num_records_, num_classes_);
  scores_[model].decode(out.flat());
  return out;
}

std::size_t ScoreCache::prediction(std::size_t model,
                                   std::size_t record) const {
  MUFFIN_REQUIRE(model < num_models(), "model index out of range");
  MUFFIN_REQUIRE(record < num_records_, "record index out of range");
  return predictions_[model][record];
}

void ScoreCache::gather(std::span<const std::size_t> model_indices,
                        std::size_t record, std::span<double> out) const {
  MUFFIN_REQUIRE(record < num_records_, "record index out of range");
  MUFFIN_REQUIRE(out.size() == model_indices.size() * num_classes_,
                 "gather output span has the wrong size");
  std::size_t cursor = 0;
  for (const std::size_t m : model_indices) {
    MUFFIN_REQUIRE(m < num_models(), "model index out of range");
    scores_[m].decode_row(record, out.subspan(cursor, num_classes_));
    cursor += num_classes_;
  }
}

bool ScoreCache::consensus(std::span<const std::size_t> model_indices,
                           std::size_t record,
                           std::size_t& consensus_class) const {
  MUFFIN_REQUIRE(!model_indices.empty(), "consensus needs at least one model");
  MUFFIN_REQUIRE(record < num_records_, "record index out of range");
  MUFFIN_REQUIRE(model_indices[0] < num_models(),
                 "model index out of range");
  const std::uint8_t first = predictions_[model_indices[0]][record];
  for (const std::size_t m : model_indices.subspan(1)) {
    MUFFIN_REQUIRE(m < num_models(), "model index out of range");
    if (predictions_[m][record] != first) return false;
  }
  consensus_class = first;
  return true;
}

}  // namespace muffin::core
