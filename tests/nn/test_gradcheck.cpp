// Numerical gradient verification: for every differentiable component, the
// analytic backward pass must match central finite differences.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <ostream>

#include "common/rng.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "nn/mlp.h"
#include "tensor/ops.h"

namespace muffin::nn {
namespace {

constexpr double kEps = 1e-6;
constexpr double kTol = 1e-5;

/// Scalar loss used to reduce a vector output: L = Σ c_i y_i with fixed
/// random coefficients (checks the full Jacobian via one backward pass).
struct Reducer {
  tensor::Vector coeffs;
  explicit Reducer(std::size_t n, SplitRng& rng) : coeffs(n) {
    for (double& c : coeffs) c = rng.normal();
  }
  [[nodiscard]] double operator()(std::span<const double> y) const {
    return tensor::dot(coeffs, y);
  }
};

TEST(GradCheck, LinearWeightsBiasAndInput) {
  SplitRng rng(1);
  Linear layer(4, 3);
  layer.init_xavier(rng);
  tensor::Vector input(4);
  for (double& v : input) v = rng.normal();
  Reducer reduce(3, rng);

  layer.zero_grad();
  (void)layer.forward(input);
  const tensor::Vector grad_input = layer.backward(reduce.coeffs);

  // Parameter gradients.
  auto params = layer.params();
  for (auto& view : params) {
    for (std::size_t i = 0; i < view.value.size(); ++i) {
      const double saved = view.value[i];
      view.value[i] = saved + kEps;
      const double up = reduce(layer.forward(input));
      view.value[i] = saved - kEps;
      const double down = reduce(layer.forward(input));
      view.value[i] = saved;
      EXPECT_NEAR(view.grad[i], (up - down) / (2 * kEps), kTol);
    }
  }
  // Input gradient.
  for (std::size_t i = 0; i < input.size(); ++i) {
    const double saved = input[i];
    input[i] = saved + kEps;
    const double up = reduce(layer.forward(input));
    input[i] = saved - kEps;
    const double down = reduce(layer.forward(input));
    input[i] = saved;
    EXPECT_NEAR(grad_input[i], (up - down) / (2 * kEps), kTol);
  }
}

class ActivationGradCheck : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationGradCheck, MatchesNumerical) {
  SplitRng rng(2);
  ActivationLayer layer(GetParam(), 5);
  tensor::Vector input(5);
  for (double& v : input) v = rng.normal() + 0.05;  // avoid ReLU kink at 0
  Reducer reduce(5, rng);
  (void)layer.forward(input);
  const tensor::Vector grad_input = layer.backward(reduce.coeffs);
  for (std::size_t i = 0; i < input.size(); ++i) {
    const double saved = input[i];
    input[i] = saved + kEps;
    const double up = reduce(layer.forward(input));
    input[i] = saved - kEps;
    const double down = reduce(layer.forward(input));
    input[i] = saved;
    EXPECT_NEAR(grad_input[i], (up - down) / (2 * kEps), kTol)
        << to_string(GetParam()) << " dim " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ActivationGradCheck,
                         ::testing::Values(Activation::Identity,
                                           Activation::Relu,
                                           Activation::LeakyRelu,
                                           Activation::Tanh,
                                           Activation::Sigmoid));

struct MlpCase {
  std::vector<std::size_t> hidden;
  Activation activation;
};

// Without this gtest prints the case as raw bytes, vector pointers included,
// so the discovered test names would change from one process to the next.
void PrintTo(const MlpCase& c, std::ostream* os) {
  *os << "hidden {";
  for (std::size_t i = 0; i < c.hidden.size(); ++i) {
    *os << (i ? "," : "") << c.hidden[i];
  }
  *os << "} " << to_string(c.activation);
}

class MlpGradCheck : public ::testing::TestWithParam<MlpCase> {};

TEST_P(MlpGradCheck, EndToEndParameterGradients) {
  SplitRng rng(3);
  MlpSpec spec;
  spec.input_dim = 6;
  spec.hidden_dims = GetParam().hidden;
  spec.output_dim = 4;
  spec.hidden_activation = GetParam().activation;
  spec.output_activation = Activation::Sigmoid;
  Mlp mlp(spec);
  mlp.init(rng);

  tensor::Vector input(6);
  for (double& v : input) v = rng.normal();
  const tensor::Vector target = tensor::one_hot(1, 4);
  const WeightedMse loss;
  const double weight = 1.7;

  mlp.zero_grad();
  const tensor::Vector out = mlp.forward(input);
  mlp.backward(loss.gradient(out, target, weight));

  auto params = mlp.params();
  // Check a deterministic subset of parameters (full check is O(P^2)).
  for (auto& view : params) {
    const std::size_t stride = std::max<std::size_t>(1, view.value.size() / 7);
    for (std::size_t i = 0; i < view.value.size(); i += stride) {
      const double saved = view.value[i];
      view.value[i] = saved + kEps;
      const double up = loss.value(mlp.forward(input), target, weight);
      view.value[i] = saved - kEps;
      const double down = loss.value(mlp.forward(input), target, weight);
      view.value[i] = saved;
      EXPECT_NEAR(view.grad[i], (up - down) / (2 * kEps), kTol);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MlpGradCheck,
    ::testing::Values(MlpCase{{}, Activation::Tanh},
                      MlpCase{{8}, Activation::Relu},
                      MlpCase{{10, 6}, Activation::Tanh},
                      MlpCase{{12, 8, 6}, Activation::Sigmoid},
                      MlpCase{{16, 10}, Activation::LeakyRelu}));

TEST(GradCheck, LossGradientsMatchNumerical) {
  SplitRng rng(4);
  const WeightedMse mse;
  const WeightedCrossEntropy ce;
  tensor::Vector pred(5);
  for (double& v : pred) v = 0.1 + 0.8 * rng.uniform();
  const tensor::Vector target = tensor::one_hot(2, 5);
  const double weight = 2.3;

  for (const Loss* loss : {static_cast<const Loss*>(&mse),
                           static_cast<const Loss*>(&ce)}) {
    const tensor::Vector grad = loss->gradient(pred, target, weight);
    for (std::size_t i = 0; i < pred.size(); ++i) {
      const double saved = pred[i];
      pred[i] = saved + kEps;
      const double up = loss->value(pred, target, weight);
      pred[i] = saved - kEps;
      const double down = loss->value(pred, target, weight);
      pred[i] = saved;
      EXPECT_NEAR(grad[i], (up - down) / (2 * kEps), 1e-4);
    }
  }
}

TEST(GradCheck, LstmBpttMatchesNumerical) {
  SplitRng rng(5);
  LstmCell cell(3, 4);
  cell.init(rng);

  const std::size_t steps = 3;
  std::vector<tensor::Vector> inputs(steps, tensor::Vector(3));
  for (auto& x : inputs) {
    for (double& v : x) v = rng.normal();
  }
  std::vector<Reducer> reducers;
  reducers.reserve(steps);
  for (std::size_t t = 0; t < steps; ++t) reducers.emplace_back(4, rng);

  const auto total_loss = [&]() {
    cell.begin_sequence();
    double loss = 0.0;
    for (std::size_t t = 0; t < steps; ++t) {
      loss += reducers[t](cell.step(inputs[t]));
    }
    return loss;
  };

  cell.zero_grad();
  (void)total_loss();
  std::vector<tensor::Vector> grad_h;
  grad_h.reserve(steps);
  for (std::size_t t = 0; t < steps; ++t) grad_h.push_back(reducers[t].coeffs);
  const std::vector<tensor::Vector> grad_x = cell.backward_sequence(grad_h);

  // Parameter gradients (subset).
  auto params = cell.params();
  for (auto& view : params) {
    const std::size_t stride = std::max<std::size_t>(1, view.value.size() / 5);
    for (std::size_t i = 0; i < view.value.size(); i += stride) {
      const double saved = view.value[i];
      view.value[i] = saved + kEps;
      const double up = total_loss();
      view.value[i] = saved - kEps;
      const double down = total_loss();
      view.value[i] = saved;
      EXPECT_NEAR(view.grad[i], (up - down) / (2 * kEps), kTol);
    }
  }
  // Input gradients at every step.
  for (std::size_t t = 0; t < steps; ++t) {
    for (std::size_t i = 0; i < 3; ++i) {
      const double saved = inputs[t][i];
      inputs[t][i] = saved + kEps;
      const double up = total_loss();
      inputs[t][i] = saved - kEps;
      const double down = total_loss();
      inputs[t][i] = saved;
      EXPECT_NEAR(grad_x[t][i], (up - down) / (2 * kEps), kTol);
    }
  }
}

}  // namespace
}  // namespace muffin::nn
