#include "models/calibrated.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/error.h"
#include "common/parallel_for.h"
#include "common/stats.h"
#include "tensor/ops.h"

namespace muffin::models {

namespace {

/// Signed per-group offsets for one attribute: negative on the unprivileged
/// side, positive on the privileged side, magnitudes ∝ 1/sqrt(group size),
/// Σ|d_g| = target and Σ n_g d_g = 0.
std::vector<double> solve_offsets(const std::vector<std::size_t>& sizes,
                                  std::vector<bool> low_side, double target) {
  const std::size_t groups = sizes.size();
  std::vector<double> offsets(groups, 0.0);
  if (target <= 0.0 || groups < 2) return offsets;

  // Fallback when the scenario marks no unprivileged group (e.g. gender):
  // the below-median-size groups take the low side — in the real datasets
  // rarer groups fare worse.
  if (std::none_of(low_side.begin(), low_side.end(),
                   [](bool b) { return b; })) {
    std::vector<std::size_t> sorted = sizes;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t median = sorted[sorted.size() / 2];
    for (std::size_t g = 0; g < groups; ++g) {
      low_side[g] = sizes[g] < median || (sizes[g] == median && g + 1 == groups);
    }
    if (std::none_of(low_side.begin(), low_side.end(),
                     [](bool b) { return b; })) {
      low_side[0] = true;  // degenerate: all sizes equal
    }
  }
  // Ensure the high side is non-empty too.
  if (std::all_of(low_side.begin(), low_side.end(),
                  [](bool b) { return b; })) {
    low_side[0] = false;
  }

  std::vector<double> share(groups, 0.0);
  double low_total = 0.0;
  double high_total = 0.0;
  for (std::size_t g = 0; g < groups; ++g) {
    share[g] = 1.0 / std::sqrt(static_cast<double>(std::max<std::size_t>(
                   sizes[g], 1)));
    (low_side[g] ? low_total : high_total) += share[g];
  }
  double weighted_low = 0.0;
  double weighted_high = 0.0;
  for (std::size_t g = 0; g < groups; ++g) {
    const double normalized =
        share[g] / (low_side[g] ? low_total : high_total);
    share[g] = normalized;
    const double mass = static_cast<double>(sizes[g]) * normalized;
    (low_side[g] ? weighted_low : weighted_high) += mass;
  }
  MUFFIN_REQUIRE(weighted_low > 0.0 && weighted_high > 0.0,
                 "offset derivation needs samples on both sides");
  const double c_low = target / (1.0 + weighted_low / weighted_high);
  const double c_high = target - c_low;
  for (std::size_t g = 0; g < groups; ++g) {
    offsets[g] = low_side[g] ? -c_low * share[g] : c_high * share[g];
  }
  return offsets;
}

}  // namespace

CalibrationWalk::CalibrationWalk(const data::Dataset& source)
    : dataset(&source), class_sizes(source.num_classes(), 0) {
  const std::vector<data::AttributeSchema>& schema = source.schema();
  const std::size_t attributes = schema.size();
  MUFFIN_REQUIRE(source.size() <= UINT32_MAX,
                 "calibration set too large for 32-bit cell ids");
  group_sizes.resize(attributes);
  for (std::size_t a = 0; a < attributes; ++a) {
    group_sizes[a].assign(schema[a].group_count(), 0);
  }
  // Cells are numbered through an open-addressing table over the group
  // tuples (cell id + 1 per slot, 0 = empty) with at least twice as many
  // slots as records, so it never fills.
  std::size_t capacity = 16;
  while (capacity < 2 * source.size()) capacity *= 2;
  std::vector<std::uint32_t> table(capacity, 0);
  record_cells.reserve(source.size());
  for (const data::Record& record : source.records()) {
    MUFFIN_REQUIRE(record.groups.size() == attributes,
                   "record schema mismatch");
    MUFFIN_REQUIRE(record.label < class_sizes.size(),
                   "record label out of range");
    ++class_sizes[record.label];
    std::uint64_t hash = 0;
    for (std::size_t a = 0; a < attributes; ++a) {
      const std::size_t g = record.groups[a];
      MUFFIN_REQUIRE(g < group_sizes[a].size(),
                     "group id " + std::to_string(g) +
                         " out of range for attribute '" + schema[a].name +
                         "'");
      ++group_sizes[a][g];
      hash = mix64(hash ^ g);
    }
    std::size_t slot = hash & (capacity - 1);
    for (; table[slot] != 0; slot = (slot + 1) & (capacity - 1)) {
      const std::size_t* cell = &cell_groups[(table[slot] - 1) * attributes];
      if (std::equal(record.groups.begin(), record.groups.end(), cell)) break;
    }
    if (table[slot] == 0) {
      cell_groups.insert(cell_groups.end(), record.groups.begin(),
                         record.groups.end());
      table[slot] =
          static_cast<std::uint32_t>(cell_groups.size() / attributes);
    }
    record_cells.push_back(table[slot] - 1);
  }
}

CalibratedModel::CalibratedModel(ArchitectureProfile profile,
                                 const data::Dataset& dataset,
                                 CalibrationConfig config)
    : CalibratedModel(std::move(profile), CalibrationWalk(dataset), config) {}

CalibratedModel::CalibratedModel(ArchitectureProfile profile,
                                 const CalibrationWalk& walk,
                                 CalibrationConfig config)
    : profile_(std::move(profile)),
      config_(config),
      num_classes_(walk.dataset->num_classes()),
      schema_(walk.dataset->schema()),
      base_accuracy_(0.0),
      model_seed_(fnv1a64(profile_.calibration_alias.empty()
                              ? profile_.name
                              : profile_.calibration_alias)),
      family_seed_(fnv1a64(profile_.family)) {
  const std::size_t records = walk.record_cells.size();
  MUFFIN_REQUIRE(records > 0, "calibration requires a non-empty dataset");
  MUFFIN_REQUIRE(profile_.accuracy > 0.0 && profile_.accuracy < 1.0,
                 "profile accuracy must be a fraction in (0, 1)");
  MUFFIN_REQUIRE(config_.copula_rho >= 0.0 && config_.copula_rho < 1.0,
                 "copula rho must be in [0, 1)");
  MUFFIN_REQUIRE(config_.family_rho >= 0.0 &&
                     config_.copula_rho + config_.family_rho < 1.0,
                 "family rho must be non-negative with rho sum below 1");
  base_accuracy_ = profile_.accuracy;

  class_priors_.resize(num_classes_);
  for (std::size_t c = 0; c < num_classes_; ++c) {
    class_priors_[c] = static_cast<double>(walk.class_sizes[c]) /
                       static_cast<double>(records);
  }
  // Per-label confusion mass: total weight of the wrong-prediction
  // categorical over c != label, accumulated in ascending class order (the
  // same order the sampling scan walks, so the draw lands in the bucket the
  // accumulated prefix defines).
  confusion_total_.assign(num_classes_, 0.0);
  for (std::size_t label = 0; label < num_classes_; ++label) {
    double total = 0.0;
    for (std::size_t c = 0; c < num_classes_; ++c) {
      if (c == label) continue;
      total += class_priors_[c] + 1e-6;
    }
    confusion_total_[label] = total;
  }

  eps_prefix_ = stream_purpose_prefix("eps");
  fam_prefix_ = stream_purpose_prefix("fam");
  confusion_prefix_ = stream_purpose_prefix("confusion");
  logits_prefix_ = stream_purpose_prefix("logits");
  calibration_prefix_ = stream_purpose_prefix("calibration");
  runner_prefix_ = stream_purpose_prefix("runner-up");
  latent_shared_w_ = std::sqrt(config_.copula_rho);
  latent_family_w_ = std::sqrt(config_.family_rho);
  latent_eps_w_ =
      std::sqrt(1.0 - config_.copula_rho - config_.family_rho);

  derive_offsets(walk);
  fixed_point_calibrate(walk);
}

void CalibratedModel::derive_offsets(const CalibrationWalk& walk) {
  offsets_.assign(schema_.size(), {});
  for (std::size_t a = 0; a < schema_.size(); ++a) {
    const auto it = profile_.unfairness.find(schema_[a].name);
    const double target = it == profile_.unfairness.end() ? 0.0 : it->second;
    std::vector<bool> low_side(schema_[a].group_count(), false);
    for (std::size_t g = 0; g < schema_[a].group_count(); ++g) {
      low_side[g] = walk.dataset->is_unprivileged(a, g);
    }
    offsets_[a] = solve_offsets(walk.group_sizes[a], low_side, target);
  }
}

void CalibratedModel::fixed_point_calibrate(const CalibrationWalk& walk) {
  const std::size_t attributes = schema_.size();
  const std::vector<std::vector<std::size_t>>& group_sizes = walk.group_sizes;
  std::vector<double> cell_probability(walk.cell_groups.size() / attributes);
  std::vector<std::vector<double>> group_sum(attributes);
  for (std::size_t round = 0; round < config_.calibration_rounds; ++round) {
    // Expected (not sampled) accuracy per group and overall.
    for (std::size_t c = 0; c < cell_probability.size(); ++c) {
      cell_probability[c] =
          clamped_probability(&walk.cell_groups[c * attributes]);
    }
    double overall = 0.0;
    for (std::size_t a = 0; a < attributes; ++a) {
      group_sum[a].assign(schema_[a].group_count(), 0.0);
    }
    for (const std::uint32_t cell : walk.record_cells) {
      const double p = cell_probability[cell];
      const std::size_t* groups = &walk.cell_groups[cell * attributes];
      overall += p;
      for (std::size_t a = 0; a < attributes; ++a) {
        group_sum[a][groups[a]] += p;
      }
    }
    overall /= static_cast<double>(walk.record_cells.size());

    // Re-center the base accuracy.
    base_accuracy_ += 0.9 * (profile_.accuracy - overall);

    // Rescale each attribute's offsets toward its unfairness target.
    for (std::size_t a = 0; a < schema_.size(); ++a) {
      const auto it = profile_.unfairness.find(schema_[a].name);
      if (it == profile_.unfairness.end() || it->second <= 0.0) continue;
      double realized = 0.0;
      for (std::size_t g = 0; g < schema_[a].group_count(); ++g) {
        if (group_sizes[a][g] == 0) continue;
        const double acc_g =
            group_sum[a][g] / static_cast<double>(group_sizes[a][g]);
        realized += std::abs(acc_g - overall);
      }
      if (realized <= 1e-9) continue;
      const double scale = clamp(it->second / realized, 0.5, 2.0);
      const double damped = 1.0 + 0.8 * (scale - 1.0);
      for (double& d : offsets_[a]) d *= damped;
    }
  }
}

double CalibratedModel::correctness_probability(
    const data::Record& record) const {
  MUFFIN_REQUIRE(record.groups.size() == schema_.size(),
                 "record schema mismatch");
  for (std::size_t a = 0; a < schema_.size(); ++a) {
    // Records can arrive off the wire, where decoding checks only counts.
    MUFFIN_REQUIRE(record.groups[a] < offsets_[a].size(),
                   "group id " + std::to_string(record.groups[a]) +
                       " out of range for attribute '" + schema_[a].name +
                       "'");
  }
  return clamped_probability(record.groups.data());
}

double CalibratedModel::clamped_probability(const std::size_t* groups) const {
  double p = base_accuracy_;
  for (std::size_t a = 0; a < schema_.size(); ++a) p += offsets_[a][groups[a]];
  return clamp(p, config_.min_probability, config_.max_probability);
}

double CalibratedModel::latent_quantile(const data::Record& record) const {
  const UidDigits digits(record.uid);
  const std::string_view uid = digits.view();
  // Family factor: derived from (family, record), so same-family models
  // share it while cross-family models do not. Both streams are counter
  // streams — one splitmix64 draw through normal_quantile — matching the
  // batch kernel's normal_planar pass draw for draw.
  const double eps =
      CounterRng(fork_seed(model_seed_, stream_name_hash(eps_prefix_, uid)))
          .normal();
  const double family_factor =
      CounterRng(fork_seed(family_seed_, stream_name_hash(fam_prefix_, uid)))
          .normal();
  const double latent = latent_shared_w_ * record.difficulty +
                        latent_family_w_ * family_factor +
                        latent_eps_w_ * eps;
  return normal_cdf(latent);
}

bool CalibratedModel::is_correct(const data::Record& record) const {
  return latent_quantile(record) < correctness_probability(record);
}

const std::vector<double>& CalibratedModel::group_offsets(
    std::size_t attribute) const {
  MUFFIN_REQUIRE(attribute < offsets_.size(), "attribute index out of range");
  return offsets_[attribute];
}

tensor::Vector CalibratedModel::scores(const data::Record& record) const {
  // A single-row span through the full score_batch entry — one code path,
  // so the scores() == score_batch() row contract holds by construction
  // instead of by maintaining two implementations in step. The per-call
  // setup (output matrix, scratch arenas, one whole-kernel pass at n = 1)
  // is the honest price of the unified kernel; batch callers amortize it.
  const tensor::Matrix scored = score_batch({&record, 1});
  const auto row = scored.row(0);
  return tensor::Vector(row.begin(), row.end());
}

tensor::Matrix CalibratedModel::score_batch(
    std::span<const data::Record> records) const {
  tensor::Matrix out;
  out.resize_for_overwrite(records.size(), num_classes_);
  // Row-split over the shared worker pool: each row is a pure function of
  // its record and the frozen calibration state, so any partition is
  // bit-identical to the serial whole-batch call. Scratch lives per block —
  // no shared mutable state between workers.
  const std::size_t classes = num_classes_;
  double* base = out.flat().data();
  parallel_for(records.size(), /*grain=*/64,
               [&](std::size_t begin, std::size_t end) {
                 BatchScratch scratch;
                 score_rows(records.subspan(begin, end - begin), scratch,
                            base + begin * classes, classes);
               });
  return out;
}

void CalibratedModel::score_rows(std::span<const data::Record> records,
                                 BatchScratch& s, double* out,
                                 std::size_t ldo) const {
  const std::size_t n = records.size();
  const std::size_t classes = num_classes_;
  if (n == 0) return;

  s.words.resize(6 * n);
  s.reals.resize((7 + classes) * n);
  s.indices.resize(2 * n);
  s.correct.resize(n);
  std::uint64_t* const eps_states = s.words.data();
  std::uint64_t* const fam_states = eps_states + n;  // adjacent: see header
  std::uint64_t* const logit_states = fam_states + n;
  std::uint64_t* const confusion_seeds = logit_states + n;
  std::uint64_t* const calibration_seeds = confusion_seeds + n;
  std::uint64_t* const runner_seeds = calibration_seeds + n;
  double* const eps = s.reals.data();
  double* const fam = eps + n;  // adjacent to eps: one planar sweep fills both
  double* const probability = fam + n;
  double* const difficulty = probability + n;
  double* const slack = difficulty + n;
  double* const margin = slack + n;
  double* const max_background = margin + n;
  double* const planes = max_background + n;
  std::size_t* const label = s.indices.data();
  std::size_t* const predicted = label + n;
  unsigned char* const correct = s.correct.data();

  // Pass A — scalar prologue: validate, evaluate the calibrated
  // correctness probability and derive every substream seed. The uid's
  // decimal digits render once per record and continue all six purpose
  // prefixes in lock-step (independent multiply chains pipeline; hashing
  // six names costs barely more than one).
  for (std::size_t i = 0; i < n; ++i) {
    const data::Record& record = records[i];
    MUFFIN_REQUIRE(record.label < classes, "record label out of range");
    probability[i] = correctness_probability(record);
    difficulty[i] = record.difficulty;
    label[i] = record.label;
    const UidDigits digits(record.uid);
    std::uint64_t hashes[6] = {eps_prefix_,    fam_prefix_,
                               logits_prefix_, confusion_prefix_,
                               calibration_prefix_, runner_prefix_};
    fnv1a64_continue_many(hashes, digits.view());
    eps_states[i] = fork_seed(model_seed_, hashes[0]);
    fam_states[i] = fork_seed(family_seed_, hashes[1]);
    logit_states[i] = fork_seed(model_seed_, hashes[2]);
    confusion_seeds[i] = fork_seed(model_seed_, hashes[3]);
    calibration_seeds[i] = fork_seed(model_seed_, hashes[4]);
    runner_seeds[i] = fork_seed(model_seed_, hashes[5]);
  }

  // Pass B — whole-batch idiosyncratic and family draws through the SIMD
  // backend (one splitmix64 step + inverse normal CDF per lane); the eps
  // and fam columns are adjacent in the arena, so one sweep fills both.
  tensor::normal_planar_into(std::span<std::uint64_t>(eps_states, 2 * n),
                             std::span<double>(eps, 2 * n));

  // Pass C — copula latent, correctness and slack as column sweeps. The
  // latent expression mirrors latent_quantile() term for term.
  for (std::size_t i = 0; i < n; ++i) {
    const double latent = latent_shared_w_ * difficulty[i] +
                          latent_family_w_ * fam[i] +
                          latent_eps_w_ * eps[i];
    const double quantile = normal_cdf(latent);
    const double p = probability[i];
    correct[i] = quantile < p ? 1 : 0;
    slack[i] = p - quantile;  // >0 when correct, <0 when wrong
  }

  // Pass D — predicted class. Correct rows predict the label; wrong rows
  // draw from the prior-weighted confusion categorical by inverting one
  // uniform against the precomputed per-label mass — no per-record weight
  // vector, no heap traffic (the old implementation allocated one
  // std::vector<double> per wrongly-predicted record here).
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lab = label[i];
    std::size_t pred = lab;
    if (!correct[i]) {
      const double total = confusion_total_[lab];
      MUFFIN_REQUIRE(total > 0.0, "confusion weights must have mass");
      const double point = CounterRng(confusion_seeds[i]).uniform() * total;
      double cumulative = 0.0;
      for (std::size_t c = 0; c < classes; ++c) {
        if (c == lab) continue;
        pred = c;  // falls through to the last bucket on the edge
        cumulative += class_priors_[c] + 1e-6;
        if (point < cumulative) break;
      }
    }
    predicted[i] = pred;
  }

  // Pass E — background logit noise, one planar sweep per class so every
  // record consumes its logits stream in ascending class order, then one
  // sweep scaling all planes by the noise stddev.
  for (std::size_t c = 0; c < classes; ++c) {
    tensor::normal_planar_into(std::span<std::uint64_t>(logit_states, n),
                               std::span<double>(planes + c * n, n));
  }
  const double noise_scale = config_.logit_noise;
  for (std::size_t k = 0; k < classes * n; ++k) planes[k] *= noise_scale;

  // Pass F — max background logit over every class except the prediction
  // (the true label's noise must be included, or it could accidentally win
  // the argmax and break the calibrated correctness marginal).
  for (std::size_t i = 0; i < n; ++i) max_background[i] = 0.0;
  for (std::size_t c = 0; c < classes; ++c) {
    const double* pc = planes + c * n;
    for (std::size_t i = 0; i < n; ++i) {
      if (c != predicted[i]) {
        max_background[i] = std::max(max_background[i], pc[i]);
      }
    }
  }

  // Pass G — confidence miscalibration and the margin. Some wrong answers
  // look sharp, some correct answers look hesitant (bounds how much of the
  // disagreement set a fused head can possibly recover, like a real CNN
  // ensemble).
  for (std::size_t i = 0; i < n; ++i) {
    const bool right = correct[i] != 0;
    const double gap = slack[i];
    const bool miscalibrated =
        CounterRng(calibration_seeds[i])
            .bernoulli(right ? config_.hesitant_rate
                             : config_.overconfident_rate);
    const bool sharp_regime = right != miscalibrated;
    double m = 0.0;
    if (sharp_regime) {
      const double sharpness =
          right ? clamp(gap, 0.0, 1.0) : clamp(-gap, 0.0, 1.0);
      m = config_.correct_margin + config_.correct_margin_slope * sharpness;
    } else {
      // Flat regime: barely-decided samples leave the model visibly
      // uncertain — the margin shrinks and the score vector flattens.
      const double wobble = clamp(std::abs(gap) * 2.5, 0.0, 1.0);
      m = config_.wrong_margin * (0.25 + 0.75 * wobble);
    }
    // Domain familiarity: real CNNs are less confident on groups they
    // handle poorly, independent of whether this particular answer is
    // right. p encodes the group structure, so this leaks group identity
    // into the score shape — which is what lets the fairness-weighted head
    // training (Algorithm 1) specialize on unprivileged patterns.
    margin[i] = m * (0.4 + 0.8 * probability[i]);
  }

  // Pass H — peak and runner-up assembly: the predicted class lands
  // strictly on top; when wrong, the true class trails the prediction by
  // runner_up_gap (often ranked second).
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lab = label[i];
    const std::size_t pred = predicted[i];
    const bool right = correct[i] != 0;
    const double top = max_background[i] + margin[i];
    planes[pred * n + i] = top;
    if (classes > 2) {
      // Runner-up slot: when wrong, the true class lands there only with
      // probability runner_up_rate — otherwise a random decoy class does.
      // When correct, a decoy always fills it (some class is always
      // second).
      CounterRng runner(runner_seeds[i]);
      std::size_t runner_class = lab;
      if (right || !runner.bernoulli(config_.runner_up_rate)) {
        do {
          runner_class = runner.index(classes);
        } while (runner_class == pred || runner_class == lab);
        if (right && runner.bernoulli(0.5)) {
          // Correct predictions may still rank the true class's own decoy
          // lower than background; skip the boost half the time.
          runner_class = pred;
        }
      }
      if (runner_class != pred) {
        planes[runner_class * n + i] = top - config_.runner_up_gap;
      }
    } else if (!right) {
      planes[lab * n + i] = top - config_.runner_up_gap;
    }
  }

  // Pass I — whole-batch softmax over the class-major planes through the
  // SIMD backend, written row-major straight into the output.
  tensor::softmax_planar_into(std::span<double>(planes, classes * n), n,
                              classes, n, out, ldo);
}

}  // namespace muffin::models
