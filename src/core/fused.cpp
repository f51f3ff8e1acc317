#include "core/fused.h"

#include <algorithm>

#include "common/error.h"
#include "tensor/ops.h"

namespace muffin::core {

FusingStructure FusingStructure::from_choice(const rl::StructureChoice& choice,
                                             std::size_t num_classes) {
  MUFFIN_REQUIRE(!choice.model_indices.empty(),
                 "structure needs at least one body model");
  MUFFIN_REQUIRE(num_classes > 0, "num_classes must be positive");
  FusingStructure structure;
  structure.model_indices = choice.model_indices;
  structure.head_spec.input_dim = choice.model_indices.size() * num_classes;
  structure.head_spec.hidden_dims = choice.hidden_dims;
  structure.head_spec.output_dim = num_classes;
  structure.head_spec.hidden_activation = choice.activation;
  structure.head_spec.output_activation = nn::Activation::Sigmoid;
  return structure;
}

FusedModel::FusedModel(std::string name, std::vector<models::ModelPtr> body,
                       nn::Mlp head, bool head_only_on_disagreement)
    : name_(std::move(name)),
      body_(std::move(body)),
      head_(std::move(head)),
      head_only_on_disagreement_(head_only_on_disagreement),
      num_classes_(0) {
  MUFFIN_REQUIRE(!body_.empty(), "fused model needs at least one body model");
  for (const models::ModelPtr& model : body_) {
    MUFFIN_REQUIRE(model != nullptr, "body models must be non-null");
  }
  num_classes_ = body_.front()->num_classes();
  for (const models::ModelPtr& model : body_) {
    MUFFIN_REQUIRE(model->num_classes() == num_classes_,
                   "body models must share a class count");
  }
  MUFFIN_REQUIRE(head_.spec().input_dim == body_.size() * num_classes_,
                 "head input width must equal body count x classes");
  MUFFIN_REQUIRE(head_.spec().output_dim == num_classes_,
                 "head output width must equal the class count");
}

std::size_t FusedModel::parameter_count() const {
  std::size_t count = head_.parameter_count();
  for (const models::ModelPtr& model : body_) {
    count += model->parameter_count();
  }
  return count;
}

tensor::Vector FusedModel::scores(const data::Record& record) const {
  tensor::Vector gathered(body_.size() * num_classes_, 0.0);
  for (std::size_t m = 0; m < body_.size(); ++m) {
    const tensor::Vector s = body_[m]->scores(record);
    MUFFIN_REQUIRE(s.size() == num_classes_,
                   "body model returned malformed scores");
    for (std::size_t c = 0; c < num_classes_; ++c) {
      gathered[m * num_classes_ + c] = s[c];
    }
  }
  return fuse_gathered(gathered, head_, body_.size(), num_classes_,
                       head_only_on_disagreement_)
      .scores;
}

tensor::Matrix FusedModel::score_batch(
    std::span<const data::Record> records) const {
  const tensor::Matrix gathered =
      gather_body_scores(body_, num_classes_, records);
  return fuse_gathered_batch(gathered, head_, body_.size(), num_classes_,
                             head_only_on_disagreement_)
      .scores;
}

tensor::Matrix gather_body_scores(const std::vector<models::ModelPtr>& body,
                                  std::size_t num_classes,
                                  std::span<const data::Record> records) {
  const std::size_t n = records.size();
  // Gather model-at-a-time: each body model scores the whole batch through
  // its score_batch override, keeping that model's state hot across rows.
  tensor::Matrix gathered(n, body.size() * num_classes);
  for (std::size_t m = 0; m < body.size(); ++m) {
    const tensor::Matrix s = body[m]->score_batch(records);
    MUFFIN_REQUIRE(s.rows() == n && s.cols() == num_classes,
                   "body model returned malformed scores");
    for (std::size_t i = 0; i < n; ++i) {
      const auto src = s.row(i);
      auto dst = gathered.row(i);
      for (std::size_t c = 0; c < num_classes; ++c) {
        dst[m * num_classes + c] = src[c];
      }
    }
  }
  return gathered;
}

FusedScores fuse_gathered(std::span<const double> gathered,
                          const nn::Mlp& head, std::size_t body_size,
                          std::size_t num_classes,
                          bool head_only_on_disagreement) {
  MUFFIN_REQUIRE(gathered.size() == body_size * num_classes,
                 "gathered row must be body count x classes wide");
  std::size_t consensus = 0;
  bool all_agree = true;
  for (std::size_t m = 0; m < body_size; ++m) {
    const std::size_t pred =
        tensor::argmax(gathered.subspan(m * num_classes, num_classes));
    if (m == 0) {
      consensus = pred;
    } else if (pred != consensus) {
      all_agree = false;
    }
  }

  if (head_only_on_disagreement && all_agree) {
    // Consensus: return the mean body score vector (argmax == consensus).
    tensor::Vector mean(num_classes, 0.0);
    for (std::size_t m = 0; m < body_size; ++m) {
      for (std::size_t c = 0; c < num_classes; ++c) {
        mean[c] += gathered[m * num_classes + c];
      }
    }
    for (double& v : mean) v /= static_cast<double>(body_size);
    return {std::move(mean), true};
  }

  tensor::Vector out = head.forward_inference(gathered);
  const double total = tensor::sum(out);
  if (total > 1e-12) {
    for (double& v : out) v /= total;
  }
  return {std::move(out), false};
}

FusedBatch fuse_gathered_batch(const tensor::Matrix& gathered,
                               const nn::Mlp& head, std::size_t body_size,
                               std::size_t num_classes,
                               bool head_only_on_disagreement) {
  MUFFIN_REQUIRE(gathered.cols() == body_size * num_classes,
                 "gathered rows must be body count x classes wide");
  const std::size_t n = gathered.rows();
  FusedBatch batch;
  batch.scores.resize(n, num_classes);
  batch.consensus.assign(n, false);

  // Row-wise consensus gate (same argmax order as fuse_gathered).
  std::vector<std::size_t> head_rows;
  head_rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = gathered.row(i);
    std::size_t consensus = 0;
    bool all_agree = true;
    for (std::size_t m = 0; m < body_size; ++m) {
      const std::size_t pred =
          tensor::argmax(row.subspan(m * num_classes, num_classes));
      if (m == 0) {
        consensus = pred;
      } else if (pred != consensus) {
        all_agree = false;
      }
    }
    if (head_only_on_disagreement && all_agree) {
      // Consensus: the mean body score vector (argmax == consensus).
      auto out = batch.scores.row(i);
      for (std::size_t m = 0; m < body_size; ++m) {
        for (std::size_t c = 0; c < num_classes; ++c) {
          out[c] += row[m * num_classes + c];
        }
      }
      for (double& v : out) v /= static_cast<double>(body_size);
      batch.consensus[i] = true;
    } else {
      head_rows.push_back(i);
    }
  }

  // One batched head forward over the disagreement sub-batch.
  if (!head_rows.empty()) {
    tensor::Matrix sub(head_rows.size(), gathered.cols());
    for (std::size_t k = 0; k < head_rows.size(); ++k) {
      const auto src = gathered.row(head_rows[k]);
      std::copy(src.begin(), src.end(), sub.row(k).begin());
    }
    const tensor::Matrix head_out = head.forward_batch_inference(sub);
    for (std::size_t k = 0; k < head_rows.size(); ++k) {
      const auto src = head_out.row(k);
      auto dst = batch.scores.row(head_rows[k]);
      std::copy(src.begin(), src.end(), dst.begin());
      const double total = tensor::sum(dst);
      if (total > 1e-12) {
        for (double& v : dst) v /= total;
      }
    }
  }
  batch.head_rows = head_rows.size();
  return batch;
}

std::vector<std::size_t> fused_predictions(const ScoreCache& cache,
                                           const FusingStructure& structure,
                                           const nn::Mlp& head,
                                           bool head_only_on_disagreement) {
  MUFFIN_REQUIRE(head.spec().input_dim ==
                     structure.model_indices.size() * cache.num_classes(),
                 "head input width must match structure and cache");
  const std::size_t width =
      structure.model_indices.size() * cache.num_classes();
  std::vector<std::size_t> predictions(cache.num_records());

  // Resolve consensus rows straight from the cached argmaxes; collect the
  // disagreement rows for one batched head forward.
  std::vector<std::size_t> head_rows;
  for (std::size_t i = 0; i < cache.num_records(); ++i) {
    std::size_t consensus = 0;
    if (head_only_on_disagreement &&
        cache.consensus(structure.model_indices, i, consensus)) {
      predictions[i] = consensus;
    } else {
      head_rows.push_back(i);
    }
  }
  if (head_rows.empty()) return predictions;

  tensor::Matrix gathered(head_rows.size(), width);
  for (std::size_t k = 0; k < head_rows.size(); ++k) {
    cache.gather(structure.model_indices, head_rows[k], gathered.row(k));
  }
  const std::vector<std::size_t> head_preds = head.predict_batch(gathered);
  for (std::size_t k = 0; k < head_rows.size(); ++k) {
    predictions[head_rows[k]] = head_preds[k];
  }
  return predictions;
}

}  // namespace muffin::core
