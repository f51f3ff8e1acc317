// Fully connected (dense) layer.
//
// Serving additions on top of the plain trainable layer:
//
//  * **Mapped (zero-copy) weights.** adopt_weights() points the layer at
//    a read-only weight/bias block owned by a mapped model artifact
//    (data/serialize.h) and releases the heap copies. A mapped layer is
//    frozen: the inference paths work (and clones share the mapping),
//    but every training-path method throws muffin::Error.
//  * **Quantized inference.** When the active quant mode
//    (tensor/quant.h, MUFFIN_QUANT) is bf16 or int8, the inference
//    forwards run through the dequantizing GEMM kernels on a lazily
//    built k-major weight pack. The pack is invalidated by every
//    weight-mutating entry point — and, conservatively, by the training
//    forwards/backwards, because the optimizer writes weights through
//    ParamViews cached before the epoch loop — so a fit-then-serve
//    sequence always re-packs fresh weights. The per-record and batch
//    paths share one kernel, keeping scores() == score_batch() rows
//    bit-identical in every mode.
#pragma once

#include <memory>
#include <mutex>

#include "common/rng.h"
#include "nn/layer.h"
#include "tensor/quant.h"

namespace muffin::nn {

/// y = W x + b with W of shape (out, in).
class Linear final : public Layer {
 public:
  Linear(std::size_t in_dim, std::size_t out_dim);

  /// Tag for the mapped-construction path: record the dimensions but do
  /// not allocate weight/gradient storage. The layer is unusable until
  /// adopt_weights() — callers must adopt immediately (Mlp::map_artifact
  /// does), otherwise zero-copy loading would still pay a full
  /// allocate-and-zero of every weight block it is about to discard.
  struct DeferStorage {};
  Linear(std::size_t in_dim, std::size_t out_dim, DeferStorage);

  Linear(const Linear& other);
  Linear& operator=(const Linear& other);

  /// Xavier/Glorot-uniform initialization from the given stream.
  void init_xavier(SplitRng& rng);
  /// He-normal initialization (preferred before ReLU-family activations).
  void init_he(SplitRng& rng);

  /// Borrow weights/bias from caller-owned storage (row-major out x in
  /// weights, out biases) and release the heap copies. `keepalive` holds
  /// the storage's owner (typically a mapped artifact) alive for this
  /// layer's lifetime and every clone's. The layer becomes inference-only.
  void adopt_weights(const double* weights, const double* bias,
                     std::shared_ptr<const void> keepalive);
  /// Whether the weights are borrowed (layer is frozen).
  [[nodiscard]] bool mapped() const { return mapped_weights_ != nullptr; }

  tensor::Vector forward(std::span<const double> input) override;
  tensor::Vector backward(std::span<const double> grad_output) override;
  [[nodiscard]] tensor::Vector forward_inference(
      std::span<const double> input) const override;
  /// X W^T + b as one GEMM (tall-skinny X against the row-major weights).
  const tensor::Matrix& forward_batch(const tensor::Matrix& input) override;
  /// Both products run on the dispatched matmul kernel (tensor/simd.h):
  /// the weight gradient accumulates G^T X straight into the existing
  /// gradient, and the input gradient is G W. The kernel adds each
  /// element's terms in ascending order and skips zero entries of G, the
  /// per-sample backward's order, so gradients are bit-identical to a
  /// per-sample forward/backward loop. One pass over G sums the bias
  /// gradient and builds G^T.
  const tensor::Matrix& backward_batch(const tensor::Matrix& grad_output,
                                       bool input_grad = true) override;
  void forward_batch_inference_into(const tensor::Matrix& input,
                                    tensor::Matrix& output) const override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  std::vector<ParamView> params() override;
  void zero_grad() override;

  [[nodiscard]] std::size_t input_dim() const override { return in_dim_; }
  [[nodiscard]] std::size_t output_dim() const override { return out_dim_; }

  /// Heap-owned weight matrix; throws for a mapped layer (use
  /// weight_span(), which works in both states).
  [[nodiscard]] const tensor::Matrix& weights() const;
  tensor::Matrix& weights();
  [[nodiscard]] const tensor::Vector& bias() const;
  tensor::Vector& bias();
  /// Row-major (out x in) weight block, owned or mapped.
  [[nodiscard]] std::span<const double> weight_span() const {
    return {weight_data(), out_dim_ * in_dim_};
  }
  [[nodiscard]] std::span<const double> bias_span() const {
    return {bias_data(), out_dim_};
  }
  [[nodiscard]] const tensor::Matrix& weight_grad() const {
    return weight_grad_;
  }
  [[nodiscard]] const tensor::Vector& bias_grad() const { return bias_grad_; }

 private:
  [[nodiscard]] const double* weight_data() const {
    return mapped_weights_ != nullptr ? mapped_weights_
                                      : weights_.flat().data();
  }
  [[nodiscard]] const double* bias_data() const {
    return mapped_bias_ != nullptr ? mapped_bias_ : bias_.data();
  }
  void require_trainable(const char* what) const;
  void invalidate_pack() const;
  /// The k-major quantized pack for `mode`, built on first use under the
  /// pack mutex and shared until the weights change or the mode does.
  [[nodiscard]] std::shared_ptr<const tensor::QuantMatrix> quant_pack(
      tensor::QuantMode mode) const;

  std::size_t in_dim_;
  std::size_t out_dim_;
  tensor::Matrix weights_;
  tensor::Vector bias_;
  tensor::Matrix weight_grad_;
  tensor::Vector bias_grad_;
  tensor::Vector last_input_;
  tensor::Matrix last_batch_input_;  ///< forward_batch cache for backward
  tensor::Matrix grad_output_t_;     ///< G^T, dW's row-major left operand

  const double* mapped_weights_ = nullptr;
  const double* mapped_bias_ = nullptr;
  std::shared_ptr<const void> keepalive_;  ///< owner of mapped storage

  mutable std::mutex qpack_mutex_;
  mutable std::shared_ptr<const tensor::QuantMatrix> qpack_;
};

}  // namespace muffin::nn
