// Multi-layer perceptron — the "muffin head" backbone.
//
// The paper's Table I reports head architectures as width lists such as
// [16, 18, 12, 8]: input width (num paired models x num classes), hidden
// widths, output width (num classes). MlpSpec captures exactly that plus the
// hidden activation, which is part of the controller's search space.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/serialize.h"
#include "nn/activation.h"
#include "nn/layer.h"
#include "nn/linear.h"

namespace muffin::nn {

/// Architecture description of an MLP.
struct MlpSpec {
  std::size_t input_dim = 0;
  std::vector<std::size_t> hidden_dims;
  std::size_t output_dim = 0;
  Activation hidden_activation = Activation::Relu;
  /// Activation applied to the output layer. Sigmoid keeps outputs in
  /// [0, 1], matching the weighted-MSE training target (one-hot labels).
  Activation output_activation = Activation::Sigmoid;

  /// Width list in the paper's notation, e.g. "[16,18,12,8]".
  [[nodiscard]] std::string to_string() const;
  /// Total trainable parameters of an MLP with this spec.
  [[nodiscard]] std::size_t parameter_count() const;

  bool operator==(const MlpSpec& other) const = default;
};

/// A trainable MLP built from Linear + ActivationLayer blocks.
class Mlp {
 public:
  explicit Mlp(MlpSpec spec);

  /// Value semantics: copying an Mlp copies its weights. Gradient
  /// accumulators start zeroed in the copy, and its training workspace
  /// starts empty: a copy never shares or points into the source's
  /// buffers, so copies train independently on different threads.
  Mlp(const Mlp& other);
  Mlp& operator=(const Mlp& other);
  Mlp(Mlp&&) noexcept = default;
  Mlp& operator=(Mlp&&) noexcept = default;

  /// Initialize all linear layers (He for ReLU-family hidden activations,
  /// Xavier otherwise) from the given stream.
  void init(SplitRng& rng);

  /// Forward pass for one sample; caches activations for backward.
  tensor::Vector forward(std::span<const double> input);
  /// Backward pass; accumulates parameter gradients, returns input gradient.
  tensor::Vector backward(std::span<const double> grad_output);

  /// Const, cache-free forward for one sample — the inference path. No
  /// backward may follow, but unlike forward it is safe to call concurrently
  /// on a shared instance. Bit-identical to forward.
  [[nodiscard]] tensor::Vector forward_inference(
      std::span<const double> input) const;

  /// Batched forward (one sample per row); caches per-layer activations for
  /// backward_batch. Row r of the result is bit-identical to
  /// forward(input.row(r)). The result is the last layer's workspace
  /// buffer (nn/layer.h): valid until the next forward_batch on this Mlp.
  const tensor::Matrix& forward_batch(const tensor::Matrix& input);
  /// Batched backward; accumulates parameter gradients (summed in ascending
  /// row order, matching a per-sample loop) and returns input gradients,
  /// in the first layer's workspace buffer: valid until the next backward
  /// on this Mlp.
  const tensor::Matrix& backward_batch(const tensor::Matrix& grad_output);
  /// The training step's backward: the same routine as backward_batch,
  /// with bit-identical parameter gradients, stopping before the first
  /// layer's input gradient, which nothing reads when the input is frozen
  /// data (the head's body scores).
  void accumulate_gradients(const tensor::Matrix& grad_output);
  /// Const, cache-free batched forward — the serving path.
  [[nodiscard]] tensor::Matrix forward_batch_inference(
      const tensor::Matrix& input) const;

  /// forward_inference + argmax.
  [[nodiscard]] std::size_t predict(std::span<const double> input) const;
  /// Row-wise argmax of forward_batch_inference.
  [[nodiscard]] std::vector<std::size_t> predict_batch(
      const tensor::Matrix& input) const;

  std::vector<ParamView> params();
  void zero_grad();
  [[nodiscard]] std::size_t parameter_count() const;
  [[nodiscard]] const MlpSpec& spec() const { return spec_; }

  /// Binary artifact serialization (data/serialize.h). Tensors are named
  /// "<prefix>.spec" (the architecture, as one f64 row), "<prefix>.w<i>"
  /// and "<prefix>.b<i>" (the i-th linear layer's weights and bias), so
  /// several heads can share one artifact under distinct prefixes. Works
  /// for mapped heads too (re-saving a served model is allowed).
  /// `dtype` picks the weight encoding: F64 is exact; Bf16 and I8 store
  /// each plane as an n x 1 tensor::QuantMatrix (I8 adds a
  /// "<prefix>.s<i>" scale tensor per layer, one symmetric scale each for
  /// weights and bias) — the memory-lean shipping format for body pools,
  /// at the cost of a dequantize on load.
  void save_artifact(data::ArtifactWriter& writer, const std::string& prefix,
                     data::TensorDtype dtype = data::TensorDtype::F64) const;
  /// Rebuild a trainable Mlp by copying the artifact tensors onto the
  /// heap (quantized tensors are dequantized once here); throws
  /// muffin::Error when the prefix is absent or malformed.
  [[nodiscard]] static Mlp from_artifact(const data::Artifact& artifact,
                                         const std::string& prefix);
  /// Zero-copy load: linear layers borrow their weights directly from the
  /// artifact's storage (mapped pages when the artifact came from
  /// Artifact::map_file) and hold its keepalive. The result is
  /// inference-only — training entry points throw — and clones of it
  /// keep sharing the same pages. Zero-copy adoption requires f64
  /// tensors; a quantized artifact falls back to from_artifact (one
  /// dequantizing copy, still valid for serving).
  [[nodiscard]] static Mlp map_artifact(const data::Artifact& artifact,
                                        const std::string& prefix);
  /// Whether any layer borrows mapped weights (the Mlp is frozen).
  [[nodiscard]] bool mapped() const;

 private:
  /// defer_storage builds the linear layers without allocating weight or
  /// gradient buffers — map_artifact's path, which adopts every block
  /// from the artifact right after construction.
  Mlp(MlpSpec spec, bool defer_storage);

  /// The one batched backward routine; `first_input_grad` false skips the
  /// first layer's input gradient.
  const tensor::Matrix& backward_layers(const tensor::Matrix& grad_output,
                                        bool first_input_grad);

  MlpSpec spec_;
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace muffin::nn
