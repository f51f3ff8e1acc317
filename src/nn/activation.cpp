#include "nn/activation.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace muffin::nn {

namespace {
constexpr double kLeakySlope = 0.01;
}

double activate(Activation kind, double x) {
  switch (kind) {
    case Activation::Identity:
      return x;
    case Activation::Relu:
      return x > 0.0 ? x : 0.0;
    case Activation::LeakyRelu:
      return x > 0.0 ? x : kLeakySlope * x;
    case Activation::Tanh:
      return std::tanh(x);
    case Activation::Sigmoid:
      return 1.0 / (1.0 + std::exp(-x));
  }
  throw Error("unknown activation kind");
}

double activate_grad(Activation kind, double x) {
  switch (kind) {
    case Activation::Identity:
      return 1.0;
    case Activation::Relu:
      return x > 0.0 ? 1.0 : 0.0;
    case Activation::LeakyRelu:
      return x > 0.0 ? 1.0 : kLeakySlope;
    case Activation::Tanh: {
      const double t = std::tanh(x);
      return 1.0 - t * t;
    }
    case Activation::Sigmoid: {
      const double s = 1.0 / (1.0 + std::exp(-x));
      return s * (1.0 - s);
    }
  }
  throw Error("unknown activation kind");
}

std::string to_string(Activation kind) {
  switch (kind) {
    case Activation::Identity:
      return "identity";
    case Activation::Relu:
      return "relu";
    case Activation::LeakyRelu:
      return "leaky_relu";
    case Activation::Tanh:
      return "tanh";
    case Activation::Sigmoid:
      return "sigmoid";
  }
  throw Error("unknown activation kind");
}

Activation activation_from_string(const std::string& name) {
  if (name == "identity") return Activation::Identity;
  if (name == "relu") return Activation::Relu;
  if (name == "leaky_relu") return Activation::LeakyRelu;
  if (name == "tanh") return Activation::Tanh;
  if (name == "sigmoid") return Activation::Sigmoid;
  throw Error("unknown activation name: " + name);
}

const std::vector<Activation>& searchable_activations() {
  static const std::vector<Activation> kAll = {
      Activation::Relu, Activation::LeakyRelu, Activation::Tanh,
      Activation::Sigmoid};
  return kAll;
}

ActivationLayer::ActivationLayer(Activation kind, std::size_t dim)
    : kind_(kind), dim_(dim) {
  MUFFIN_REQUIRE(dim > 0, "activation layer dimension must be positive");
}

tensor::Vector ActivationLayer::forward(std::span<const double> input) {
  MUFFIN_REQUIRE(input.size() == dim_, "activation input size mismatch");
  last_input_.assign(input.begin(), input.end());
  tensor::Vector out(dim_);
  for (std::size_t i = 0; i < dim_; ++i) out[i] = activate(kind_, input[i]);
  return out;
}

tensor::Vector ActivationLayer::forward_inference(
    std::span<const double> input) const {
  MUFFIN_REQUIRE(input.size() == dim_, "activation input size mismatch");
  tensor::Vector out(dim_);
  for (std::size_t i = 0; i < dim_; ++i) out[i] = activate(kind_, input[i]);
  return out;
}

const tensor::Matrix& ActivationLayer::forward_batch(
    const tensor::Matrix& input) {
  forward_batch_inference_into(input, batch_output_);
  return batch_output_;
}

void ActivationLayer::forward_batch_inference_into(
    const tensor::Matrix& input, tensor::Matrix& output) const {
  MUFFIN_REQUIRE(input.cols() == dim_, "activation batch input size mismatch");
  output.resize_for_overwrite(input.rows(), dim_);
  const auto in = input.flat();
  auto out = output.flat();
  // Same per-element arithmetic as activate(); the switch is hoisted out
  // of the loop so each kind gets a tight elementwise pass.
  switch (kind_) {
    case Activation::Identity:
      std::copy(in.begin(), in.end(), out.begin());
      break;
    case Activation::Relu:
      for (std::size_t i = 0; i < in.size(); ++i) {
        out[i] = in[i] > 0.0 ? in[i] : 0.0;
      }
      break;
    case Activation::LeakyRelu:
      for (std::size_t i = 0; i < in.size(); ++i) {
        out[i] = in[i] > 0.0 ? in[i] : kLeakySlope * in[i];
      }
      break;
    case Activation::Tanh:
      for (std::size_t i = 0; i < in.size(); ++i) out[i] = std::tanh(in[i]);
      break;
    case Activation::Sigmoid:
      for (std::size_t i = 0; i < in.size(); ++i) {
        out[i] = 1.0 / (1.0 + std::exp(-in[i]));
      }
      break;
  }
}

const tensor::Matrix& ActivationLayer::backward_batch(
    const tensor::Matrix& grad_output, bool input_grad) {
  MUFFIN_REQUIRE(grad_output.cols() == dim_,
                 "activation batch gradient size mismatch");
  MUFFIN_REQUIRE(batch_output_.rows() == grad_output.rows() &&
                     batch_output_.cols() == dim_,
                 "batched backward called before forward_batch");
  if (!input_grad) {
    batch_grad_input_.resize_for_overwrite(0, 0);  // keeps the capacity
    return batch_grad_input_;
  }
  batch_grad_input_.resize_for_overwrite(grad_output.rows(), dim_);
  const auto g = grad_output.flat();
  const auto y = batch_output_.flat();
  auto out = batch_grad_input_.flat();
  // activate_grad() in terms of the output y = activate(x): y > 0 exactly
  // when x > 0 for ReLU and LeakyReLU, and tanh/sigmoid reuse the value
  // activate_grad() would recompute. Switch hoisted out of the loop. The
  // ReLU-family slope is a named value so the compiler vectorizes it as a
  // compare-and-mask; folded into the product it becomes a branch that
  // mispredicts on about half the elements.
  switch (kind_) {
    case Activation::Identity:
      std::copy(g.begin(), g.end(), out.begin());
      break;
    case Activation::Relu:
      for (std::size_t i = 0; i < g.size(); ++i) {
        const double slope = y[i] > 0.0 ? 1.0 : 0.0;
        out[i] = g[i] * slope;
      }
      break;
    case Activation::LeakyRelu:
      for (std::size_t i = 0; i < g.size(); ++i) {
        const double slope = y[i] > 0.0 ? 1.0 : kLeakySlope;
        out[i] = g[i] * slope;
      }
      break;
    case Activation::Tanh:
      for (std::size_t i = 0; i < g.size(); ++i) {
        out[i] = g[i] * (1.0 - y[i] * y[i]);
      }
      break;
    case Activation::Sigmoid:
      for (std::size_t i = 0; i < g.size(); ++i) {
        out[i] = g[i] * (y[i] * (1.0 - y[i]));
      }
      break;
  }
  return batch_grad_input_;
}

tensor::Vector ActivationLayer::backward(std::span<const double> grad_output) {
  MUFFIN_REQUIRE(grad_output.size() == dim_,
                 "activation gradient size mismatch");
  MUFFIN_REQUIRE(last_input_.size() == dim_,
                 "backward called before forward");
  tensor::Vector grad_in(dim_);
  for (std::size_t i = 0; i < dim_; ++i) {
    grad_in[i] = grad_output[i] * activate_grad(kind_, last_input_[i]);
  }
  return grad_in;
}

}  // namespace muffin::nn
