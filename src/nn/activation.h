// Activation functions and the parameter-free activation layer.
//
// The muffin-head search space (framework component #1) includes the choice
// of activation function, so the set here mirrors what an NAS controller
// can pick: ReLU, LeakyReLU, Tanh, Sigmoid, plus Identity for linear heads.
#pragma once

#include <string>

#include "nn/layer.h"

namespace muffin::nn {

enum class Activation { Identity, Relu, LeakyRelu, Tanh, Sigmoid };

/// Scalar activation value.
[[nodiscard]] double activate(Activation kind, double x);
/// Derivative d activate / dx expressed via x (pre-activation input).
[[nodiscard]] double activate_grad(Activation kind, double x);

[[nodiscard]] std::string to_string(Activation kind);
/// Parse a name produced by to_string; throws muffin::Error on unknown name.
[[nodiscard]] Activation activation_from_string(const std::string& name);
/// All activations the search space may choose from (excludes Identity).
[[nodiscard]] const std::vector<Activation>& searchable_activations();

/// Elementwise activation layer.
class ActivationLayer final : public Layer {
 public:
  ActivationLayer(Activation kind, std::size_t dim);

  tensor::Vector forward(std::span<const double> input) override;
  tensor::Vector backward(std::span<const double> grad_output) override;
  [[nodiscard]] tensor::Vector forward_inference(
      std::span<const double> input) const override;
  const tensor::Matrix& forward_batch(const tensor::Matrix& input) override;
  /// Reads the derivative off forward_batch's cached output instead of
  /// re-evaluating the activation: the output is the same expression of
  /// the same input, so the gradient matches backward's bit for bit.
  const tensor::Matrix& backward_batch(const tensor::Matrix& grad_output,
                                       bool input_grad = true) override;
  void forward_batch_inference_into(const tensor::Matrix& input,
                                    tensor::Matrix& output) const override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ActivationLayer>(kind_, dim_);
  }
  [[nodiscard]] std::size_t input_dim() const override { return dim_; }
  [[nodiscard]] std::size_t output_dim() const override { return dim_; }
  [[nodiscard]] Activation kind() const { return kind_; }

 private:
  Activation kind_;
  std::size_t dim_;
  tensor::Vector last_input_;
};

}  // namespace muffin::nn
