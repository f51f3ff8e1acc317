// Precomputed model outputs over a dataset.
//
// The off-the-shelf models are frozen (their parameters are never touched,
// §3.2 component 2), so their class scores over a dataset are computed once
// and reused across all search episodes. The cache also provides the
// gather operation building the muffin head's input: the concatenation of
// the selected body models' score vectors for one record.
//
// Each model's scores are one held-rows x classes tensor::QuantMatrix in
// the cache's quant mode (tensor/quant.h): float64, bf16, or int8 with
// one scale per class column. gather() decodes one row per selected
// model; consensus() never dequantizes at all — argmax predictions are
// computed from the full-precision scores *before* quantization and
// stored exactly (one byte per record), so the consensus fast path is
// bit-for-bit unaffected by the score encoding. At 8 classes, int8
// planes plus byte predictions cut the per-record score-state footprint
// ~7x against float64 (bf16: ~3.8x).
//
// A cache holds either every row of its dataset or a row subset (the
// row-subset constructor; MuffinSearch's train cache holds only the proxy
// rows its heads train on). Either way every accessor takes dataset row
// ids and num_records() is the dataset's size. A row's scores do not
// depend on which other rows were scored, so a subset cache's f64 and
// bf16 rows are bit-identical to the all-rows cache's; int8 scales are
// taken per class column over the held rows, so its int8 rows are not.
#pragma once

#include <cstdint>
#include <span>

#include "data/dataset.h"
#include "models/pool.h"
#include "tensor/matrix.h"
#include "tensor/quant.h"

namespace muffin::core {

class ScoreCache {
 public:
  /// Scores `pool` over `dataset`, storing planes in `mode` (default: the
  /// process-wide MUFFIN_QUANT mode). Quantized modes require
  /// num_classes <= 256 (predictions are stored as one byte).
  explicit ScoreCache(const models::ModelPool& pool,
                      const data::Dataset& dataset,
                      tensor::QuantMode mode = tensor::active_quant_mode());
  /// Scores `pool` over only the given rows of `dataset`: distinct row
  /// ids in any order, at least one (an empty list does not mean "all
  /// rows"). Accessors take dataset row ids and throw muffin::Error on a
  /// row the cache does not hold; scores_dense() throws.
  ScoreCache(const models::ModelPool& pool, const data::Dataset& dataset,
             std::span<const std::size_t> rows,
             tensor::QuantMode mode = tensor::active_quant_mode());

  // Move-only: the footprint gauge accounting makes copies error-prone,
  // and every user holds exactly one cache per dataset anyway.
  ScoreCache(const ScoreCache&) = delete;
  ScoreCache& operator=(const ScoreCache&) = delete;
  ScoreCache(ScoreCache&& other) noexcept;
  ScoreCache& operator=(ScoreCache&& other) noexcept;
  ~ScoreCache();

  [[nodiscard]] std::size_t num_models() const { return predictions_.size(); }
  /// Rows of the dataset the cache was built over (held or not).
  [[nodiscard]] std::size_t num_records() const { return num_records_; }
  [[nodiscard]] std::size_t num_classes() const { return num_classes_; }
  [[nodiscard]] tensor::QuantMode quant_mode() const { return mode_; }
  /// Bytes held by the score planes, scales and prediction arrays, plus a
  /// row-subset cache's row index (4 bytes per dataset row); this is the
  /// score-state footprint reported on "core.score_cache_bytes".
  [[nodiscard]] std::size_t footprint_bytes() const {
    return footprint_bytes_;
  }

  /// One model's (num_records, num_classes) score matrix, dequantized
  /// into a fresh Matrix. Row r equals what gather() yields for that
  /// model and record. All-rows caches only.
  [[nodiscard]] tensor::Matrix scores_dense(std::size_t model) const;
  /// Argmax predictions of one model, aligned with record indices —
  /// computed from the full-precision scores before quantization.
  [[nodiscard]] std::size_t prediction(std::size_t model,
                                       std::size_t record) const;

  /// Concatenated scores of `model_indices` for `record` written to `out`
  /// (size must be model_indices.size() * num_classes()), dequantized
  /// per the cache's quant mode.
  void gather(std::span<const std::size_t> model_indices, std::size_t record,
              std::span<double> out) const;

  /// Whether all the given models predict the same class for `record`;
  /// when true, `consensus` receives that class.
  [[nodiscard]] bool consensus(std::span<const std::size_t> model_indices,
                               std::size_t record,
                               std::size_t& consensus) const;

 private:
  /// The one scoring loop: scores `records` (the held rows, in slot
  /// order) with every pool model and publishes the footprint.
  void score(const models::ModelPool& pool,
             std::span<const data::Record> records);
  /// Plane row holding dataset row `record`; throws unless it is held.
  [[nodiscard]] std::size_t slot(std::size_t record) const;
  void release_footprint() noexcept;

  std::size_t num_records_ = 0;
  std::size_t num_classes_ = 0;
  tensor::QuantMode mode_ = tensor::QuantMode::Off;
  std::size_t footprint_bytes_ = 0;
  std::vector<tensor::QuantMatrix> scores_;  ///< one per model
  std::vector<std::vector<std::uint8_t>> predictions_;
  /// Row-subset caches only: dataset row -> plane row + 1, 0 when the row
  /// is not held. Empty in an all-rows cache, whose plane rows are the
  /// dataset rows.
  std::vector<std::uint32_t> slot_of_;
};

}  // namespace muffin::core
