#include "nn/trainer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#include "common/error.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace muffin::nn {
namespace {

/// Two linearly separable Gaussian blobs in 2-D.
TrainingSet blob_dataset(std::size_t n, SplitRng& rng) {
  TrainingSet set;
  set.num_classes = 2;
  set.features.resize(n, 2);
  set.labels.resize(n);
  set.weights.assign(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t label = i % 2;
    const double cx = label == 0 ? -1.5 : 1.5;
    set.features(i, 0) = cx + rng.normal(0.0, 0.5);
    set.features(i, 1) = rng.normal(0.0, 0.5);
    set.labels[i] = label;
  }
  return set;
}

Mlp small_mlp() {
  MlpSpec spec;
  spec.input_dim = 2;
  spec.hidden_dims = {8};
  spec.output_dim = 2;
  spec.output_activation = Activation::Sigmoid;
  return Mlp(spec);
}

TEST(TrainingSet, ValidateCatchesInconsistencies) {
  TrainingSet set;
  set.num_classes = 2;
  set.features.resize(2, 3);
  set.labels = {0, 1};
  set.weights = {1.0, 1.0};
  EXPECT_NO_THROW(set.validate());

  TrainingSet bad = set;
  bad.labels = {0, 2};  // out of range
  EXPECT_THROW(bad.validate(), Error);

  bad = set;
  bad.weights = {1.0};
  EXPECT_THROW(bad.validate(), Error);

  bad = set;
  bad.weights = {1.0, -0.5};
  EXPECT_THROW(bad.validate(), Error);

  bad = set;
  bad.num_classes = 0;
  EXPECT_THROW(bad.validate(), Error);
}

TEST(Trainer, LearnsSeparableBlobs) {
  SplitRng rng(1);
  TrainingSet data = blob_dataset(200, rng);
  Mlp mlp = small_mlp();
  SplitRng init_rng(2);
  mlp.init(init_rng);
  WeightedMse loss;
  Adam optimizer(AdamConfig{.learning_rate = 5e-3});
  TrainerConfig config;
  config.epochs = 40;
  config.batch_size = 16;
  SplitRng train_rng(3);
  const double final_loss =
      train(mlp, data, loss, optimizer, config, train_rng);
  EXPECT_LT(final_loss, 0.1);
  EXPECT_GT(evaluate_accuracy(mlp, data), 0.95);
}

TEST(Trainer, LossDecreasesOverEpochs) {
  SplitRng rng(4);
  TrainingSet data = blob_dataset(150, rng);
  Mlp mlp = small_mlp();
  SplitRng init_rng(5);
  mlp.init(init_rng);
  WeightedMse loss;
  Adam optimizer(AdamConfig{.learning_rate = 5e-3});
  std::vector<double> losses;
  TrainerConfig config;
  config.epochs = 30;
  config.batch_size = 16;
  config.on_epoch = [&](std::size_t, double l) { losses.push_back(l); };
  SplitRng train_rng(6);
  (void)train(mlp, data, loss, optimizer, config, train_rng);
  ASSERT_EQ(losses.size(), 30u);
  EXPECT_LT(losses.back(), 0.6 * losses.front());
}

TEST(Trainer, ZeroWeightSamplesAreIgnored) {
  SplitRng rng(7);
  TrainingSet data = blob_dataset(100, rng);
  // Mislabel half the data but give those samples zero weight: the model
  // must still learn the clean decision boundary.
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i % 4 == 0) {
      data.labels[i] = 1 - data.labels[i];
      data.weights[i] = 0.0;
    }
  }
  Mlp mlp = small_mlp();
  SplitRng init_rng(8);
  mlp.init(init_rng);
  WeightedMse loss;
  Adam optimizer(AdamConfig{.learning_rate = 5e-3});
  TrainerConfig config;
  config.epochs = 40;
  config.batch_size = 16;
  SplitRng train_rng(9);
  (void)train(mlp, data, loss, optimizer, config, train_rng);

  // Evaluate on clean samples only.
  std::size_t correct = 0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data.weights[i] == 0.0) continue;
    ++total;
    if (mlp.predict(data.features.row(i)) == data.labels[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.9);
}

TEST(Trainer, DeterministicGivenSeeds) {
  SplitRng rng_a(10);
  SplitRng rng_b(10);
  TrainingSet data_a = blob_dataset(80, rng_a);
  TrainingSet data_b = blob_dataset(80, rng_b);

  const auto run = [](TrainingSet& data) {
    Mlp mlp = small_mlp();
    SplitRng init_rng(11);
    mlp.init(init_rng);
    WeightedMse loss;
    Adam optimizer(AdamConfig{.learning_rate = 5e-3});
    TrainerConfig config;
    config.epochs = 5;
    config.batch_size = 8;
    SplitRng train_rng(12);
    return train(mlp, data, loss, optimizer, config, train_rng);
  };
  EXPECT_DOUBLE_EQ(run(data_a), run(data_b));
}

/// The per-sample loop nn::train promises to match bit for bit: the same
/// shuffle stream and minibatch boundaries, but Mlp::forward/backward one
/// sample at a time with a fresh one-hot target, and one optimizer step
/// per minibatch.
double per_sample_reference_train(Mlp& mlp, const TrainingSet& data,
                                  const Loss& loss, Optimizer& optimizer,
                                  const TrainerConfig& config,
                                  SplitRng& rng) {
  std::vector<std::size_t> order(data.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  auto params = mlp.params();
  double epoch_loss = 0.0;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    if (config.shuffle) rng.shuffle(order);
    double loss_sum = 0.0;
    for (std::size_t cursor = 0; cursor < order.size();
         cursor += config.batch_size) {
      const std::size_t end =
          std::min(cursor + config.batch_size, order.size());
      mlp.zero_grad();
      for (std::size_t b = cursor; b < end; ++b) {
        const std::size_t idx = order[b];
        const tensor::Vector prediction = mlp.forward(data.features.row(idx));
        const tensor::Vector target =
            tensor::one_hot(data.labels[idx], data.num_classes);
        loss_sum += loss.value(prediction, target, data.weights[idx]);
        tensor::Vector grad(prediction.size());
        loss.gradient(prediction, target, data.weights[idx], grad);
        (void)mlp.backward(grad);
      }
      optimizer.step(params, end - cursor);
    }
    epoch_loss = loss_sum / static_cast<double>(data.size());
  }
  return epoch_loss;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Train one head with nn::train and a copy with the per-sample reference,
/// then require the returned losses and every weight and bias to agree bit
/// for bit.
void expect_train_matches_reference(const TrainingSet& data, MlpSpec spec,
                                    const Loss& loss, std::size_t batch_size,
                                    const std::string& label) {
  Mlp batched(std::move(spec));
  SplitRng init_rng(22);
  batched.init(init_rng);
  Mlp reference = batched;

  TrainerConfig config;
  config.epochs = 3;
  config.batch_size = batch_size;
  Adam batched_optimizer(AdamConfig{.learning_rate = 1e-2});
  Adam reference_optimizer(AdamConfig{.learning_rate = 1e-2});
  SplitRng batched_rng(23);
  SplitRng reference_rng(23);
  const double batched_loss =
      train(batched, data, loss, batched_optimizer, config, batched_rng);
  const double reference_loss = per_sample_reference_train(
      reference, data, loss, reference_optimizer, config, reference_rng);

  EXPECT_EQ(bits(batched_loss), bits(reference_loss)) << label;
  auto batched_params = batched.params();
  auto reference_params = reference.params();
  ASSERT_EQ(batched_params.size(), reference_params.size());
  for (std::size_t p = 0; p < batched_params.size(); ++p) {
    ASSERT_EQ(batched_params[p].value.size(),
              reference_params[p].value.size());
    for (std::size_t i = 0; i < batched_params[p].value.size(); ++i) {
      ASSERT_EQ(bits(batched_params[p].value[i]),
                bits(reference_params[p].value[i]))
          << label << " param block " << p << " element " << i;
    }
  }
}

TEST(Trainer, BatchedTrainingMatchesPerSampleReferenceBitwise) {
  // 45 rows: at batch 8 five full minibatches and a ragged one of 5, at
  // batch 32 one full minibatch and a ragged one of 13.
  SplitRng data_rng(21);
  TrainingSet data;
  data.num_classes = 4;
  data.features.resize(45, 5);
  data.labels.resize(45);
  data.weights.resize(45);
  for (std::size_t i = 0; i < 45; ++i) {
    for (std::size_t c = 0; c < 5; ++c) {
      // Exact zeros in the input exercise the GEMM's zero skip.
      data.features(i, c) =
          (i + c) % 4 == 0 ? 0.0 : data_rng.normal(0.0, 1.2);
    }
    data.labels[i] = i % 4;
    data.weights[i] = 0.25 + data_rng.uniform();
  }
  data.weights[3] = 0.0;  // a zero-weight sample: an all-zero gradient row

  const WeightedMse mse;
  const WeightedCrossEntropy cross_entropy;
  for (const Activation hidden :
       {Activation::Relu, Activation::LeakyRelu, Activation::Tanh,
        Activation::Sigmoid}) {
    for (const Activation output :
         {Activation::Sigmoid, Activation::Identity}) {
      for (const Loss* loss : {static_cast<const Loss*>(&mse),
                               static_cast<const Loss*>(&cross_entropy)}) {
        for (const std::size_t batch_size : {8, 32}) {
          MlpSpec spec;
          spec.input_dim = 5;
          spec.hidden_dims = {9, 6};
          spec.output_dim = 4;
          spec.hidden_activation = hidden;
          spec.output_activation = output;
          expect_train_matches_reference(
              data, spec, *loss, batch_size,
              to_string(hidden) + "/" + to_string(output) + "/" +
                  (loss == &mse ? "mse" : "cross_entropy") + "/batch " +
                  std::to_string(batch_size));
        }
      }
    }
  }
}

TEST(Trainer, RejectsMismatchedShapes) {
  SplitRng rng(13);
  TrainingSet data = blob_dataset(10, rng);
  MlpSpec spec;
  spec.input_dim = 3;  // dataset has 2 features
  spec.output_dim = 2;
  Mlp mlp(spec);
  WeightedMse loss;
  Adam optimizer(AdamConfig{});
  TrainerConfig config;
  SplitRng train_rng(14);
  EXPECT_THROW((void)train(mlp, data, loss, optimizer, config, train_rng),
               Error);
}

TEST(Trainer, RejectsBadConfig) {
  SplitRng rng(15);
  TrainingSet data = blob_dataset(10, rng);
  Mlp mlp = small_mlp();
  WeightedMse loss;
  Adam optimizer(AdamConfig{});
  TrainerConfig config;
  config.batch_size = 0;
  SplitRng train_rng(16);
  EXPECT_THROW((void)train(mlp, data, loss, optimizer, config, train_rng),
               Error);
}

TEST(EvaluateAccuracy, PerfectAndZero) {
  TrainingSet data;
  data.num_classes = 2;
  data.features.resize(2, 2);
  data.features(0, 0) = -5.0;
  data.features(1, 0) = 5.0;
  data.labels = {0, 1};
  data.weights = {1.0, 1.0};

  Mlp mlp = small_mlp();
  SplitRng init_rng(17);
  mlp.init(init_rng);
  const double acc = evaluate_accuracy(mlp, data);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

}  // namespace
}  // namespace muffin::nn
