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
// Columns are scored on first read. The constructors score nothing: a
// model's column (its score plane and predictions) is scored the first
// time gather(), consensus(), prediction() or scores_dense() reads that
// model, with one score_batch over the held rows, so a serving set-up
// that trains a two-body head scores two columns, not the whole pool.
// score_all() scores every column not yet read; MuffinSearch calls it in
// its constructor because every episode may read any model.
//
// Readers never wait on each other. A reader that finds a column missing
// scores it on its own thread and publishes it with a compare-exchange; a
// reader that loses the race frees its copy, which has the same bits (a
// row's scores depend only on the record). Waiting would deadlock: a
// calibrated body's score_batch splits rows over the shared pool and
// waits for its blocks, which could never run while every pool worker
// waited on that same column. The const accessors are therefore safe to
// call concurrently from any thread, pool workers included.
//
// A cache holds either every row of its dataset or a row subset (the
// row-subset constructor; MuffinSearch's train cache holds only the proxy
// rows its heads train on). Either way every accessor takes dataset row
// ids and num_records() is the dataset's size. A row's scores do not
// depend on which other rows were scored, so a subset cache's f64 and
// bf16 rows are bit-identical to the all-rows cache's; int8 scales are
// taken per class column over the held rows, so its int8 rows are not.
//
// Lifetimes: the cache shares ownership of the pool's models. An all-rows
// cache reads its dataset's records when it scores a column, so the
// dataset must outlive the cache, unchanged (MuffinSearch requires the
// same of its train and eval splits). A row-subset cache copies its held
// records and frees the copy once score_all() has scored every column.
// A column holds the scores its model gives when it is first read: a
// network-backed body that dequantizes under the process quant mode
// (nn::Linear) scores under the mode active then.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "models/pool.h"
#include "tensor/matrix.h"
#include "tensor/quant.h"

namespace muffin::core {

class ScoreCache {
 public:
  /// A cache of `pool` over every row of `dataset`, storing planes in
  /// `mode` (default: the process-wide MUFFIN_QUANT mode). Quantized modes
  /// require num_classes <= 256 (predictions are stored as one byte).
  /// Scores nothing yet; `dataset` must outlive the cache.
  explicit ScoreCache(const models::ModelPool& pool,
                      const data::Dataset& dataset,
                      tensor::QuantMode mode = tensor::active_quant_mode());
  /// A cache of `pool` over only the given rows of `dataset`: distinct
  /// row ids in any order, at least one (an empty list does not mean "all
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

  [[nodiscard]] std::size_t num_models() const { return models_.size(); }
  /// Rows of the dataset the cache was built over (held or not).
  [[nodiscard]] std::size_t num_records() const { return num_records_; }
  [[nodiscard]] std::size_t num_classes() const { return num_classes_; }
  [[nodiscard]] tensor::QuantMode quant_mode() const { return mode_; }
  /// Bytes held by the scored columns' planes, scales and prediction
  /// arrays, plus a row-subset cache's row index (4 bytes per dataset
  /// row); this is the score-state footprint reported on
  /// "core.score_cache_bytes". A fresh cache holds only its index.
  [[nodiscard]] std::size_t footprint_bytes() const {
    return footprint_bytes_.load();
  }

  /// Scores every column not yet scored, then frees a row-subset cache's
  /// copy of its held records. A set-up step: it must not run
  /// concurrently with any other use of the same cache.
  void score_all();

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
  /// One model's scores over the held rows (defined in the .cpp).
  struct Column;

  /// Shares the pool's models, checks their class counts and publishes
  /// the row index's footprint; scores nothing.
  void bind(const models::ModelPool& pool);
  /// The one path to a column: bounds-checks `model` and scores the
  /// column on first read.
  [[nodiscard]] const Column& column(std::size_t model) const;
  /// Plane row holding dataset row `record`; throws unless it is held.
  [[nodiscard]] std::size_t slot(std::size_t record) const;
  /// Frees the published columns and withdraws the footprint.
  void release() noexcept;

  std::size_t num_records_ = 0;
  std::size_t num_classes_ = 0;
  tensor::QuantMode mode_ = tensor::QuantMode::Off;
  std::vector<models::ModelPtr> models_;
  /// The rows a column scores, in plane-row order: the dataset's records
  /// (all-rows) or held_ (row subset). Empty after score_all().
  std::span<const data::Record> records_;
  /// Row-subset caches only: the held records, until score_all().
  std::vector<data::Record> held_;
  /// One slot per model, null until that column is first read.
  mutable std::vector<std::atomic<const Column*>> columns_;
  mutable std::atomic<std::size_t> footprint_bytes_{0};
  /// Row-subset caches only: dataset row -> plane row + 1, 0 when the row
  /// is not held. Empty in an all-rows cache, whose plane rows are the
  /// dataset rows.
  std::vector<std::uint32_t> slot_of_;
};

}  // namespace muffin::core
