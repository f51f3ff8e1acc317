// Generic mini-batch supervised trainer for Mlp models.
//
// Shared by the muffin-head trainer (core module) and the trainable
// classifier substrate (models module). Consumes a weighted classification
// dataset: features, integer labels, per-sample weights (the fairness-proxy
// group weights of Algorithm 1, or all-ones for plain training).
#pragma once

#include <functional>
#include <vector>

#include "common/rng.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"

namespace muffin::nn {

/// A weighted supervised classification dataset (row-major features).
struct TrainingSet {
  tensor::Matrix features;          // (n, input_dim)
  std::vector<std::size_t> labels;  // (n), values in [0, num_classes)
  std::vector<double> weights;      // (n), per-sample loss weights
  std::size_t num_classes = 0;

  [[nodiscard]] std::size_t size() const { return labels.size(); }
  /// Validates internal consistency; throws muffin::Error when broken.
  void validate() const;
};

struct TrainerConfig {
  std::size_t epochs = 50;
  std::size_t batch_size = 64;
  bool shuffle = true;
  /// Invoked after each epoch with (epoch, mean loss over the epoch).
  std::function<void(std::size_t, double)> on_epoch;
};

/// Runs mini-batch gradient descent of `loss` over `data`; returns the mean
/// loss of the final epoch. Each minibatch runs as one batched forward
/// (Mlp::forward_batch) and one batched backward (Mlp::accumulate_gradients,
/// which skips the first layer's unused input gradient), in the Mlp's
/// workspace: after the first minibatch, a step allocates nothing. The
/// returned loss and the trained weights are bit-identical to a per-sample
/// loop (Mlp::forward/backward per sample, one optimizer step per
/// minibatch), which Trainer.BatchedTrainingMatchesPerSampleReferenceBitwise
/// pins.
double train(Mlp& mlp, const TrainingSet& data, const Loss& loss,
             Optimizer& optimizer, const TrainerConfig& config,
             SplitRng& rng);

/// Fraction of samples whose argmax prediction matches the label (one
/// batched inference forward over the whole set).
[[nodiscard]] double evaluate_accuracy(const Mlp& mlp,
                                       const TrainingSet& data);

}  // namespace muffin::nn
