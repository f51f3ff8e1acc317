#include "nn/trainer.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"

namespace muffin::nn {

void TrainingSet::validate() const {
  MUFFIN_REQUIRE(features.rows() == labels.size(),
                 "feature rows must match label count");
  MUFFIN_REQUIRE(weights.size() == labels.size(),
                 "weights must match label count");
  MUFFIN_REQUIRE(num_classes > 0, "num_classes must be positive");
  for (const std::size_t label : labels) {
    MUFFIN_REQUIRE(label < num_classes, "label out of range");
  }
  for (const double w : weights) {
    MUFFIN_REQUIRE(w >= 0.0, "sample weights must be non-negative");
  }
}

double train(Mlp& mlp, const TrainingSet& data, const Loss& loss,
             Optimizer& optimizer, const TrainerConfig& config,
             SplitRng& rng) {
  data.validate();
  MUFFIN_REQUIRE(data.size() > 0, "cannot train on an empty dataset");
  MUFFIN_REQUIRE(data.features.cols() == mlp.spec().input_dim,
                 "dataset feature width must match MLP input");
  MUFFIN_REQUIRE(data.num_classes == mlp.spec().output_dim,
                 "dataset classes must match MLP output");
  MUFFIN_REQUIRE(config.batch_size > 0, "batch_size must be positive");
  MUFFIN_REQUIRE(config.epochs > 0, "epochs must be positive");

  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  auto params = mlp.params();

  // Scratch reused across minibatches: gathered inputs, loss gradients and
  // one one-hot target.
  tensor::Matrix batch_features;
  tensor::Matrix batch_grads;
  tensor::Vector target(data.num_classes, 0.0);

  double epoch_loss = 0.0;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    if (config.shuffle) rng.shuffle(order);
    double loss_sum = 0.0;
    std::size_t cursor = 0;
    while (cursor < order.size()) {
      const std::size_t batch_end =
          std::min(cursor + config.batch_size, order.size());
      const std::size_t batch_size = batch_end - cursor;
      mlp.zero_grad();

      // Gather the minibatch into a row-major batch and run one batched
      // forward (per-layer GEMM) instead of per-sample matvec loops.
      batch_features.resize_for_overwrite(batch_size, data.features.cols());
      for (std::size_t b = 0; b < batch_size; ++b) {
        const auto src = data.features.row(order[cursor + b]);
        std::copy(src.begin(), src.end(), batch_features.row(b).begin());
      }
      const tensor::Matrix& predictions = mlp.forward_batch(batch_features);

      // Per-sample losses and gradients, in batch order — the loss itself
      // is row-local, so this stays bit-identical to the per-sample loop.
      batch_grads.resize_for_overwrite(batch_size, data.num_classes);
      for (std::size_t b = 0; b < batch_size; ++b) {
        const std::size_t idx = order[cursor + b];
        const auto prediction = predictions.row(b);
        target[data.labels[idx]] = 1.0;
        loss_sum += loss.value(prediction, target, data.weights[idx]);
        loss.gradient(prediction, target, data.weights[idx],
                      batch_grads.row(b));
        target[data.labels[idx]] = 0.0;
      }
      mlp.accumulate_gradients(batch_grads);
      optimizer.step(params, batch_size);
      cursor = batch_end;
    }
    epoch_loss = loss_sum / static_cast<double>(data.size());
    if (config.on_epoch) config.on_epoch(epoch, epoch_loss);
  }
  return epoch_loss;
}

double evaluate_accuracy(const Mlp& mlp, const TrainingSet& data) {
  data.validate();
  if (data.size() == 0) return 0.0;
  const std::vector<std::size_t> predictions =
      mlp.predict_batch(data.features);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (predictions[i] == data.labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

}  // namespace muffin::nn
