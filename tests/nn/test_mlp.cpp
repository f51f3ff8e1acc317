#include "nn/mlp.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "tensor/ops.h"

namespace muffin::nn {
namespace {

MlpSpec paper_spec() {
  // Table I head for ShuffleNet+DenseNet121: [16,18,12,8].
  MlpSpec spec;
  spec.input_dim = 16;
  spec.hidden_dims = {18, 12};
  spec.output_dim = 8;
  return spec;
}

TEST(MlpSpec, ToStringMatchesPaperNotation) {
  EXPECT_EQ(paper_spec().to_string(), "[16,18,12,8]");
  MlpSpec no_hidden;
  no_hidden.input_dim = 4;
  no_hidden.output_dim = 2;
  EXPECT_EQ(no_hidden.to_string(), "[4,2]");
}

TEST(MlpSpec, ParameterCount) {
  // [16,18,12,8]: 16*18+18 + 18*12+12 + 12*8+8 = 306 + 228 + 104 = 638.
  EXPECT_EQ(paper_spec().parameter_count(), 638u);
}

TEST(Mlp, ParameterCountMatchesSpec) {
  Mlp mlp(paper_spec());
  EXPECT_EQ(mlp.parameter_count(), 638u);
}

TEST(Mlp, RejectsInvalidSpecs) {
  MlpSpec bad = paper_spec();
  bad.input_dim = 0;
  EXPECT_THROW(Mlp{bad}, Error);
  bad = paper_spec();
  bad.output_dim = 0;
  EXPECT_THROW(Mlp{bad}, Error);
  bad = paper_spec();
  bad.hidden_dims = {4, 0};
  EXPECT_THROW(Mlp{bad}, Error);
}

TEST(Mlp, ForwardShapeAndRange) {
  SplitRng rng(1);
  Mlp mlp(paper_spec());
  mlp.init(rng);
  tensor::Vector input(16, 0.25);
  const tensor::Vector out = mlp.forward(input);
  ASSERT_EQ(out.size(), 8u);
  for (const double v : out) {
    EXPECT_GE(v, 0.0);  // sigmoid output
    EXPECT_LE(v, 1.0);
  }
}

TEST(Mlp, ForwardRejectsWrongWidth) {
  Mlp mlp(paper_spec());
  EXPECT_THROW((void)mlp.forward(tensor::Vector(15, 0.0)), Error);
}

TEST(Mlp, BackwardRejectsWrongWidth) {
  SplitRng rng(1);
  Mlp mlp(paper_spec());
  mlp.init(rng);
  (void)mlp.forward(tensor::Vector(16, 0.1));
  EXPECT_THROW((void)mlp.backward(tensor::Vector(7, 0.0)), Error);
}

TEST(Mlp, DeterministicGivenSeed) {
  MlpSpec spec = paper_spec();
  SplitRng rng_a(7);
  SplitRng rng_b(7);
  Mlp a(spec), b(spec);
  a.init(rng_a);
  b.init(rng_b);
  tensor::Vector input(16);
  SplitRng input_rng(3);
  for (double& v : input) v = input_rng.normal();
  const tensor::Vector ya = a.forward(input);
  const tensor::Vector yb = b.forward(input);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_DOUBLE_EQ(ya[i], yb[i]);
  }
}

TEST(Mlp, PredictIsArgmaxOfForward) {
  SplitRng rng(9);
  Mlp mlp(paper_spec());
  mlp.init(rng);
  tensor::Vector input(16);
  for (double& v : input) v = rng.normal();
  EXPECT_EQ(mlp.predict(input), tensor::argmax(mlp.forward(input)));
}

TEST(Mlp, IdentityOutputActivationUnbounded) {
  MlpSpec spec = paper_spec();
  spec.output_activation = Activation::Identity;
  SplitRng rng(5);
  Mlp mlp(spec);
  mlp.init(rng);
  // Push big inputs; identity output can exceed 1.
  tensor::Vector input(16, 10.0);
  const tensor::Vector out = mlp.forward(input);
  bool outside_unit = false;
  for (const double v : out) {
    if (v < 0.0 || v > 1.0) outside_unit = true;
  }
  EXPECT_TRUE(outside_unit);
}

TEST(Mlp, ZeroGradResetsAllBlocks) {
  SplitRng rng(13);
  Mlp mlp(paper_spec());
  mlp.init(rng);
  tensor::Vector input(16, 0.3);
  (void)mlp.forward(input);
  (void)mlp.backward(tensor::Vector(8, 1.0));
  mlp.zero_grad();
  for (auto& view : mlp.params()) {
    for (const double g : view.grad) EXPECT_DOUBLE_EQ(g, 0.0);
  }
}

void expect_same_weights(Mlp& actual, Mlp& expected) {
  auto actual_params = actual.params();
  auto expected_params = expected.params();
  ASSERT_EQ(actual_params.size(), expected_params.size());
  for (std::size_t p = 0; p < actual_params.size(); ++p) {
    for (std::size_t i = 0; i < actual_params[p].value.size(); ++i) {
      ASSERT_EQ(actual_params[p].value[i], expected_params[p].value[i])
          << "param block " << p << " element " << i;
    }
  }
}

void expect_zero_gradients(Mlp& mlp) {
  for (auto& view : mlp.params()) {
    for (const double g : view.grad) EXPECT_EQ(g, 0.0);
  }
}

TEST(Mlp, CopyStartsWithZeroGradientsAndEmptyWorkspace) {
  SplitRng rng(21);
  Mlp original(paper_spec());
  original.init(rng);
  tensor::Matrix batch(12, 16);
  for (double& v : batch.flat()) v = rng.normal();
  tensor::Matrix grad(12, 8);
  for (double& v : grad.flat()) v = rng.normal();
  // One training step leaves gradients and a filled workspace behind.
  (void)original.forward_batch(batch);
  (void)original.backward_batch(grad);
  bool any_gradient = false;
  for (auto& view : original.params()) {
    for (const double g : view.grad) any_gradient |= g != 0.0;
  }
  ASSERT_TRUE(any_gradient);

  Mlp copy = original;
  Mlp assigned(paper_spec());
  assigned = original;
  for (Mlp* fresh : {&copy, &assigned}) {
    expect_zero_gradients(*fresh);
    // An empty workspace: there is no forward for a backward to follow.
    EXPECT_THROW((void)fresh->backward_batch(grad), Error);
  }

  // The copy and the original train independently, interleaved epoch by
  // epoch at different batch sizes (ragged last minibatches both), and
  // each ends with the weights a fresh copy trained alone gets.
  TrainingSet data;
  data.num_classes = 8;
  data.features = tensor::Matrix(40, 16);
  for (double& v : data.features.flat()) v = rng.normal();
  for (std::size_t i = 0; i < 40; ++i) data.labels.push_back(i % 8);
  data.weights.assign(40, 1.0);
  const WeightedMse loss;
  const Mlp snapshot = copy;
  struct Run {
    Mlp& mlp;
    std::size_t batch_size;
    Adam optimizer{AdamConfig{.learning_rate = 1e-2}};
    SplitRng rng{31};
    void epoch(const TrainingSet& set, const Loss& l) {
      TrainerConfig config;
      config.epochs = 1;
      config.batch_size = batch_size;
      (void)train(mlp, set, l, optimizer, config, rng);
    }
  };
  Run copy_run{copy, 7};
  Run original_run{original, 16};
  for (int epoch = 0; epoch < 3; ++epoch) {
    copy_run.epoch(data, loss);
    original_run.epoch(data, loss);
  }
  for (Run* run : {&copy_run, &original_run}) {
    Mlp alone = snapshot;
    Run alone_run{alone, run->batch_size};
    for (int epoch = 0; epoch < 3; ++epoch) alone_run.epoch(data, loss);
    expect_same_weights(run->mlp, alone);
  }
}

class MlpWidthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MlpWidthSweep, ParameterCountFormula) {
  const std::size_t h = GetParam();
  MlpSpec spec;
  spec.input_dim = 16;
  spec.hidden_dims = {h, h};
  spec.output_dim = 8;
  const std::size_t expected = 16 * h + h + h * h + h + h * 8 + 8;
  EXPECT_EQ(spec.parameter_count(), expected);
  EXPECT_EQ(Mlp(spec).parameter_count(), expected);
}

INSTANTIATE_TEST_SUITE_P(Widths, MlpWidthSweep,
                         ::testing::Values(8, 10, 12, 16, 18));

}  // namespace
}  // namespace muffin::nn
