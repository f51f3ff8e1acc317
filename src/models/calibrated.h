// Calibrated off-the-shelf model simulation.
//
// Stands in for a CNN trained on the real image dataset, which cannot ship
// with the repository (data/generators.h).
// The model's behaviour is specified by an ArchitectureProfile (overall
// accuracy + per-attribute unfairness targets) and realized against a
// concrete dataset in three steps:
//
// 1. **Offset derivation.** For each attribute, signed per-group accuracy
//    offsets are derived: unprivileged groups get negative offsets,
//    privileged positive, magnitudes ∝ 1/sqrt(group size) (rare groups
//    deviate most, as in the paper where 2%-mass sites show 45-point
//    accuracy gaps), subject to Σ_g |d_g| = U_target and weighted-mean
//    zero (overall accuracy preserved).
// 2. **Fixed-point calibration.** Because attributes co-occur
//    non-independently, realized group accuracies drift from the analytic
//    targets; a few damped fixed-point iterations rescale the offsets per
//    attribute and re-center the base accuracy against the expected
//    per-sample correctness probabilities on the calibration dataset.
// 3. **Copula sampling.** Sample correctness: model m is correct on record
//    i iff Φ(√ρ·z_i + √(1−ρ)·ε_im) < p_i, where z_i is the record's shared
//    difficulty factor and ε_im is idiosyncratic per (model, record). This
//    makes errors correlate across models with strength ρ, reproducing the
//    00/01/10/11 composition of Fig. 3. Score vectors are
//    confidence-calibrated: correct predictions are sharp, wrong ones flat
//    with the true class usually ranked second — the signal the muffin
//    head learns to exploit.
//
// Everything is a pure function of (profile, dataset, record.uid), so
// scores() is deterministic and the model needs no mutable state.
#pragma once

#include "common/rng.h"
#include "data/dataset.h"
#include "models/model.h"
#include "models/profiles.h"

namespace muffin::models {

struct CalibrationConfig {
  /// Copula correlation between model latents (step 3): the shared factor
  /// is the record's difficulty, which makes model errors correlate across
  /// architectures (paper Fig. 3).
  double copula_rho = 0.72;
  /// Extra correlation between models of the same architecture family
  /// (ResNet-18/34/50 err together more than ResNet vs DenseNet). Total
  /// within-family correlation is copula_rho + family_rho; it bounds the
  /// marginal benefit of stacking same-family models into the body
  /// (Fig. 9b's diminishing returns).
  double family_rho = 0.12;
  /// Fixed-point iterations of step 2.
  std::size_t calibration_rounds = 4;
  /// Per-sample correctness probability clamp.
  double min_probability = 0.02;
  double max_probability = 0.995;
  /// Score-vector shape (step 3).
  double correct_margin = 1.05;       ///< peak logit when correct
  double correct_margin_slope = 0.9;  ///< extra margin per unit of slack
  double wrong_margin = 1.9;          ///< peak logit when wrong
  double runner_up_gap = 0.45;        ///< runner-up logit gap below the peak
  double logit_noise = 0.55;          ///< iid noise on all logits
  /// When the model is wrong, probability that the *true* class sits in the
  /// runner-up slot (otherwise a random decoy class does). Real CNNs rank
  /// the true class high but not reliably second; this bounds how much a
  /// fused head can recover from "both models wrong" records.
  double runner_up_rate = 0.40;
  /// Confidence miscalibration (Ablation.MiscalibrationBoundsHeadRecovery
  /// pins its effect): real CNNs are not perfectly calibrated, so a fused
  /// head can only recover part of the disagreement set. With probability
  /// `overconfident_rate` a wrong prediction is emitted with a
  /// correct-like (sharp) margin; with probability `hesitant_rate` a
  /// correct prediction is emitted with a wrong-like (flat) margin.
  double overconfident_rate = 0.38;
  double hesitant_rate = 0.28;
};

/// The profile-independent part of calibration: one walk of the
/// calibration set, which every model calibrated against that set can
/// share (the pool factories build one for all their models). Besides
/// class and group sizes it numbers the set's cells, its distinct
/// combinations of groups, so that a fixed-point round evaluates a
/// model's correctness probability once per cell instead of once per
/// record. There are never more cells than records.
struct CalibrationWalk {
  /// Walks `dataset` once, range-checking every label and group id. The
  /// walk points at `dataset`, which must outlive it.
  explicit CalibrationWalk(const data::Dataset& dataset);

  const data::Dataset* dataset = nullptr;
  std::vector<std::size_t> class_sizes;
  std::vector<std::vector<std::size_t>> group_sizes;  ///< [attribute][group]
  /// Each cell's group ids, flat and cell-major ([cell * attributes + a]);
  /// cells are numbered in order of first appearance.
  std::vector<std::size_t> cell_groups;
  /// The cell of every record, in record order.
  std::vector<std::uint32_t> record_cells;
};

/// A simulated, frozen, pretrained classifier.
class CalibratedModel final : public Model {
 public:
  /// Calibrates the profile against `dataset` (typically the full dataset;
  /// splits of it share records and therefore behave consistently).
  CalibratedModel(ArchitectureProfile profile, const data::Dataset& dataset,
                  CalibrationConfig config = {});
  /// Calibrates against a shared walk of the calibration set, bit for bit
  /// as the constructor above does against `*walk.dataset`.
  CalibratedModel(ArchitectureProfile profile, const CalibrationWalk& walk,
                  CalibrationConfig config = {});

  [[nodiscard]] const std::string& name() const override {
    return profile_.name;
  }
  [[nodiscard]] std::size_t num_classes() const override {
    return num_classes_;
  }
  [[nodiscard]] std::size_t parameter_count() const override {
    return profile_.parameter_count;
  }
  /// Routes through the same planar batch kernel as score_batch() on a
  /// single-row span, so the two are bit-identical by construction.
  [[nodiscard]] tensor::Vector scores(
      const data::Record& record) const override;
  /// Whole-batch planar kernel: per-record substream seeds are derived in
  /// one scalar prologue, all normal draws fill contiguous per-stream
  /// arrays through the SIMD backend (tensor/ops.h normal_planar_into),
  /// the latent/margin statistics run as column sweeps, and the final
  /// softmax runs class-major over the whole output matrix
  /// (softmax_planar_into). Rows are split over the shared worker pool;
  /// every row is a pure function of its record and the frozen calibration
  /// state, so any partition — and the single-row scores() call — is
  /// bit-identical to one serial whole-batch call.
  [[nodiscard]] tensor::Matrix score_batch(
      std::span<const data::Record> records) const override;

  /// Whether the simulated model classifies `record` correctly (the copula
  /// draw behind scores()).
  [[nodiscard]] bool is_correct(const data::Record& record) const;
  /// Expected correctness probability p_i for a record (post-calibration).
  [[nodiscard]] double correctness_probability(
      const data::Record& record) const;

  [[nodiscard]] const ArchitectureProfile& profile() const { return profile_; }
  [[nodiscard]] const CalibrationConfig& config() const { return config_; }
  /// Calibrated per-group accuracy offsets for one attribute.
  [[nodiscard]] const std::vector<double>& group_offsets(
      std::size_t attribute) const;
  [[nodiscard]] double base_accuracy() const { return base_accuracy_; }

 private:
  /// Per-call scratch of the planar batch kernel: splitmix64 stream
  /// states, per-record statistics (struct-of-arrays) and the class-major
  /// logit planes, carved out of four flat arenas (a fresh scratch costs
  /// four allocations, not one per array). Owned by the caller so a
  /// row-partitioned score_batch gives each block a private instance —
  /// partition-independent and free of shared mutable state under the
  /// worker pool.
  struct BatchScratch {
    /// [eps states n | fam states n | logit states n | confusion n |
    ///  calibration n | runner n]; eps and fam are adjacent on purpose so
    /// one planar sweep fills both draw columns.
    std::vector<std::uint64_t> words;
    /// [eps draws n | fam draws n | probability n | difficulty n |
    ///  slack n | margin n | max background n | planes classes * n]
    std::vector<double> reals;
    /// [label n | predicted n]
    std::vector<std::size_t> indices;
    std::vector<unsigned char> correct;
  };

  void derive_offsets(const CalibrationWalk& walk);
  /// Step 2: each round evaluates the probability once per cell, then
  /// sums it over the records in record order.
  void fixed_point_calibrate(const CalibrationWalk& walk);
  /// base_accuracy_ plus one offset per attribute for `groups` (one
  /// range-checked id per attribute), clamped to the probability bounds.
  [[nodiscard]] double clamped_probability(const std::size_t* groups) const;
  /// The batch kernel: rows for `records` written row-major at `out` with
  /// leading dimension `ldo` (>= num_classes_). See score_batch() for the
  /// pass structure and the partition-invariance argument.
  void score_rows(std::span<const data::Record> records, BatchScratch& scratch,
                  double* out, std::size_t ldo) const;
  /// Latent Φ(√ρ z + √ρ_fam f + √(1−ρ−ρ_fam) ε) for a record; uniform in
  /// [0,1] marginally. Scalar CounterRng twin of the kernel's pass B/C —
  /// same streams, same draws, same expression, bit for bit.
  [[nodiscard]] double latent_quantile(const data::Record& record) const;

  ArchitectureProfile profile_;
  CalibrationConfig config_;
  std::size_t num_classes_ = 0;
  std::vector<data::AttributeSchema> schema_;
  std::vector<double> class_priors_;
  /// Per-label total confusion mass Σ_{c != label} (prior_c + 1e-6),
  /// precomputed so the wrong-prediction draw needs no per-record weight
  /// vector (and no per-record heap allocation).
  std::vector<double> confusion_total_;
  /// offsets_[attribute][group] — signed accuracy deltas.
  std::vector<std::vector<double>> offsets_;
  double base_accuracy_ = 0.0;
  std::uint64_t model_seed_ = 0;
  /// Cached fnv1a64(profile_.family): the family copula stream's master
  /// seed, shared by same-family models (hashed once, not per record).
  std::uint64_t family_seed_ = 0;
  /// Hoisted substream purpose prefixes (stream_purpose_prefix), hashed
  /// once per model instead of once per record per stream.
  std::uint64_t eps_prefix_ = 0;
  std::uint64_t fam_prefix_ = 0;
  std::uint64_t confusion_prefix_ = 0;
  std::uint64_t logits_prefix_ = 0;
  std::uint64_t calibration_prefix_ = 0;
  std::uint64_t runner_prefix_ = 0;
  /// Hoisted copula mixing weights: √ρ, √ρ_fam, √(1−ρ−ρ_fam).
  double latent_shared_w_ = 0.0;
  double latent_family_w_ = 0.0;
  double latent_eps_w_ = 0.0;
};

}  // namespace muffin::models
