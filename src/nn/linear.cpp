#include "nn/linear.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

namespace muffin::nn {

namespace {

/// W columns of G (row stride ldg, n rows): adds each column's rows into
/// its bias gradient in ascending row order, the per-sample loop's order,
/// and writes the columns as rows of G^T (row stride ldt). The sums live
/// in locals, so the G^T stores cannot alias them and W columns' adds run
/// side by side.
template <std::size_t W>
void sum_and_transpose(const double* g, std::size_t ldg, std::size_t n,
                       double* bias_grad, double* g_t, std::size_t ldt) {
  double sum[W];
  for (std::size_t j = 0; j < W; ++j) sum[j] = bias_grad[j];
  for (std::size_t r = 0; r < n; ++r) {
    const double* g_row = g + r * ldg;
    for (std::size_t j = 0; j < W; ++j) {
      sum[j] += g_row[j];
      g_t[j * ldt + r] = g_row[j];
    }
  }
  for (std::size_t j = 0; j < W; ++j) bias_grad[j] = sum[j];
}

/// One pass over G (n x out): the bias gradient and G^T (out x n), four
/// columns at a time.
void sum_and_transpose(const double* g, std::size_t ldg, std::size_t n,
                       std::size_t out, double* bias_grad, double* g_t,
                       std::size_t ldt) {
  std::size_t i = 0;
  for (; i + 4 <= out; i += 4) {
    sum_and_transpose<4>(g + i, ldg, n, bias_grad + i, g_t + i * ldt, ldt);
  }
  switch (out - i) {
    case 3:
      sum_and_transpose<3>(g + i, ldg, n, bias_grad + i, g_t + i * ldt, ldt);
      break;
    case 2:
      sum_and_transpose<2>(g + i, ldg, n, bias_grad + i, g_t + i * ldt, ldt);
      break;
    case 1:
      sum_and_transpose<1>(g + i, ldg, n, bias_grad + i, g_t + i * ldt, ldt);
      break;
    default:
      break;
  }
}

}  // namespace

Linear::Linear(std::size_t in_dim, std::size_t out_dim)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      weights_(out_dim, in_dim),
      bias_(out_dim, 0.0),
      weight_grad_(out_dim, in_dim),
      bias_grad_(out_dim, 0.0) {
  MUFFIN_REQUIRE(in_dim > 0 && out_dim > 0,
                 "linear layer dimensions must be positive");
}

Linear::Linear(std::size_t in_dim, std::size_t out_dim, DeferStorage)
    : in_dim_(in_dim), out_dim_(out_dim) {
  MUFFIN_REQUIRE(in_dim > 0 && out_dim > 0,
                 "linear layer dimensions must be positive");
}

// Manual copy control: the pack mutex is not copyable, and the copy should
// share a mapped source's pages rather than materialize them. The quant pack
// itself is immutable and keyed only by the weights, so sharing the
// shared_ptr with the source is safe and skips a re-pack. Like a clone, a
// copy starts with zeroed gradients and empty caches and workspace (a
// mapped layer has no gradient storage at all).
Linear::Linear(const Linear& other)
    : Layer(other),
      in_dim_(other.in_dim_),
      out_dim_(other.out_dim_),
      weights_(other.weights_),
      bias_(other.bias_),
      weight_grad_(other.weight_grad_.rows(), other.weight_grad_.cols()),
      bias_grad_(other.bias_grad_.size(), 0.0),
      mapped_weights_(other.mapped_weights_),
      mapped_bias_(other.mapped_bias_),
      keepalive_(other.keepalive_) {
  const std::lock_guard<std::mutex> lock(other.qpack_mutex_);
  qpack_ = other.qpack_;
}

Linear& Linear::operator=(const Linear& other) {
  if (this == &other) return *this;
  Layer::operator=(other);
  in_dim_ = other.in_dim_;
  out_dim_ = other.out_dim_;
  weights_ = other.weights_;
  bias_ = other.bias_;
  weight_grad_ = tensor::Matrix(other.weight_grad_.rows(),
                                other.weight_grad_.cols());
  bias_grad_.assign(other.bias_grad_.size(), 0.0);
  last_input_.clear();
  last_batch_input_ = tensor::Matrix();
  grad_output_t_ = tensor::Matrix();
  mapped_weights_ = other.mapped_weights_;
  mapped_bias_ = other.mapped_bias_;
  keepalive_ = other.keepalive_;
  std::shared_ptr<const tensor::QuantMatrix> pack;
  {
    const std::lock_guard<std::mutex> lock(other.qpack_mutex_);
    pack = other.qpack_;
  }
  const std::lock_guard<std::mutex> lock(qpack_mutex_);
  qpack_ = std::move(pack);
  return *this;
}

void Linear::require_trainable(const char* what) const {
  MUFFIN_REQUIRE(!mapped(), std::string(what) +
                                ": layer is frozen (weights are mapped "
                                "read-only from a model artifact)");
}

void Linear::invalidate_pack() const {
  const std::lock_guard<std::mutex> lock(qpack_mutex_);
  qpack_.reset();
}

std::shared_ptr<const tensor::QuantMatrix> Linear::quant_pack(
    tensor::QuantMode mode) const {
  const std::lock_guard<std::mutex> lock(qpack_mutex_);
  if (qpack_ == nullptr || qpack_->mode() != mode) {
    // The transposed (in x out) view of the row-major weights: k-major,
    // with one int8 scale per output column.
    qpack_ = std::make_shared<const tensor::QuantMatrix>(
        mode, in_dim_, out_dim_, weight_data(), /*row_stride=*/1,
        /*col_stride=*/in_dim_);
  }
  return qpack_;
}

void Linear::adopt_weights(const double* weights, const double* bias,
                           std::shared_ptr<const void> keepalive) {
  MUFFIN_REQUIRE(weights != nullptr && bias != nullptr,
                 "adopt_weights requires non-null weight and bias blocks");
  mapped_weights_ = weights;
  mapped_bias_ = bias;
  keepalive_ = std::move(keepalive);
  // Release the heap copies — the whole point of mapping is not paying for
  // them. Training caches go too; the layer is inference-only from here.
  weights_ = tensor::Matrix();
  bias_.clear();
  bias_.shrink_to_fit();
  weight_grad_ = tensor::Matrix();
  bias_grad_.clear();
  bias_grad_.shrink_to_fit();
  last_input_.clear();
  last_batch_input_ = tensor::Matrix();
  grad_output_t_ = tensor::Matrix();
  batch_output_ = tensor::Matrix();
  batch_grad_input_ = tensor::Matrix();
  invalidate_pack();
}

void Linear::init_xavier(SplitRng& rng) {
  require_trainable("init_xavier");
  const double bound =
      std::sqrt(6.0 / static_cast<double>(in_dim_ + out_dim_));
  for (double& w : weights_.flat()) w = rng.uniform(-bound, bound);
  for (double& b : bias_) b = 0.0;
  invalidate_pack();
}

void Linear::init_he(SplitRng& rng) {
  require_trainable("init_he");
  const double stddev = std::sqrt(2.0 / static_cast<double>(in_dim_));
  for (double& w : weights_.flat()) w = rng.normal(0.0, stddev);
  for (double& b : bias_) b = 0.0;
  invalidate_pack();
}

tensor::Vector Linear::forward(std::span<const double> input) {
  require_trainable("forward");
  MUFFIN_REQUIRE(input.size() == in_dim_, "linear input size mismatch");
  // The optimizer writes weights through ParamViews handed out before the
  // epoch loop, so a stale pack cannot be detected at the mutation site;
  // dropping it on every training forward keeps fit-then-serve correct.
  invalidate_pack();
  last_input_.assign(input.begin(), input.end());
  tensor::Vector out = tensor::matvec(weights_, input);
  for (std::size_t i = 0; i < out_dim_; ++i) out[i] += bias_[i];
  return out;
}

tensor::Vector Linear::backward(std::span<const double> grad_output) {
  require_trainable("backward");
  MUFFIN_REQUIRE(grad_output.size() == out_dim_,
                 "linear gradient size mismatch");
  MUFFIN_REQUIRE(last_input_.size() == in_dim_,
                 "backward called before forward");
  for (std::size_t i = 0; i < out_dim_; ++i) {
    bias_grad_[i] += grad_output[i];
    const double gi = grad_output[i];
    if (gi == 0.0) continue;
    for (std::size_t j = 0; j < in_dim_; ++j) {
      weight_grad_(i, j) += gi * last_input_[j];
    }
  }
  return tensor::matvec_transposed(weights_, grad_output);
}

tensor::Vector Linear::forward_inference(std::span<const double> input) const {
  MUFFIN_REQUIRE(input.size() == in_dim_, "linear input size mismatch");
  const tensor::QuantMode mode = tensor::active_quant_mode();
  if (mode != tensor::QuantMode::Off) {
    // Route the single record through the same dequantizing GEMM the batch
    // path uses (as a 1-row batch) so scores() stays bit-identical, row for
    // row, to score_batch() in every quant mode.
    tensor::Matrix in_row(1, in_dim_);
    std::copy(input.begin(), input.end(), in_row.row(0).begin());
    const auto pack = quant_pack(mode);
    tensor::Matrix out_row;
    tensor::matmul_transposed_b_bias_quant_into(in_row, *pack, bias_span(),
                                                out_row);
    const auto r = out_row.row(0);
    return tensor::Vector(r.begin(), r.end());
  }
  // Same accumulation order as tensor::matvec followed by the bias loop.
  const double* w = weight_data();
  const std::span<const double> bias = bias_span();
  tensor::Vector out(out_dim_, 0.0);
  for (std::size_t i = 0; i < out_dim_; ++i) {
    const double* row = w + i * in_dim_;
    double acc = 0.0;
    for (std::size_t j = 0; j < in_dim_; ++j) acc += row[j] * input[j];
    out[i] = acc;
  }
  for (std::size_t i = 0; i < out_dim_; ++i) out[i] += bias[i];
  return out;
}

const tensor::Matrix& Linear::forward_batch(const tensor::Matrix& input) {
  require_trainable("forward_batch");
  MUFFIN_REQUIRE(input.cols() == in_dim_, "linear batch input size mismatch");
  invalidate_pack();  // see forward(): ParamView writes are invisible here
  last_batch_input_ = input;  // reuses the cache's capacity
  tensor::matmul_transposed_b_bias_into(input, weights_, bias_,
                                        batch_output_);
  return batch_output_;
}

void Linear::forward_batch_inference_into(const tensor::Matrix& input,
                                          tensor::Matrix& output) const {
  MUFFIN_REQUIRE(input.cols() == in_dim_, "linear batch input size mismatch");
  const tensor::QuantMode mode = tensor::active_quant_mode();
  if (mode != tensor::QuantMode::Off) {
    const auto pack = quant_pack(mode);
    tensor::matmul_transposed_b_bias_quant_into(input, *pack, bias_span(),
                                                output);
    return;
  }
  tensor::matmul_transposed_b_bias_into(input, weight_data(), out_dim_,
                                        bias_span(), output);
}

const tensor::Matrix& Linear::backward_batch(
    const tensor::Matrix& grad_output, bool input_grad) {
  require_trainable("backward_batch");
  MUFFIN_REQUIRE(grad_output.cols() == out_dim_,
                 "linear batch gradient size mismatch");
  MUFFIN_REQUIRE(last_batch_input_.rows() == grad_output.rows() &&
                     last_batch_input_.cols() == in_dim_,
                 "batched backward called before forward_batch");
  const std::size_t n = grad_output.rows();
  const double* g = grad_output.flat().data();
  const std::size_t ldg = grad_output.stride();
  // G^T is dW's row-major left operand.
  grad_output_t_.resize_for_overwrite(out_dim_, n);
  sum_and_transpose(g, ldg, n, out_dim_, bias_grad_.data(),
                    grad_output_t_.flat().data(), grad_output_t_.stride());
  const tensor::detail::KernelTable& kernels = tensor::detail::active_kernels();
  // dW += G^T X, accumulated into the existing gradient: dW(i, j) adds
  // g(r, i) * x(r, j) for r ascending and skips g(r, i) == 0, exactly the
  // per-sample backward's sequence.
  kernels.matmul(grad_output_t_.flat().data(), grad_output_t_.stride(),
                 last_batch_input_.flat().data(),
                 last_batch_input_.stride(), weight_grad_.flat().data(),
                 weight_grad_.stride(), out_dim_, n, in_dim_);
  if (!input_grad) {
    batch_grad_input_.resize_for_overwrite(0, 0);  // keeps the capacity
    return batch_grad_input_;
  }
  // dX = G W: dX(r, j) adds g(r, i) * w(i, j) for i ascending, skipping
  // g(r, i) == 0 — tensor::matvec_transposed's order.
  batch_grad_input_.resize(n, in_dim_);  // the kernel accumulates into zeros
  kernels.matmul(g, ldg, weights_.flat().data(), weights_.stride(),
                 batch_grad_input_.flat().data(), batch_grad_input_.stride(),
                 n, out_dim_, in_dim_);
  return batch_grad_input_;
}

std::unique_ptr<Layer> Linear::clone() const {
  return std::make_unique<Linear>(*this);
}

std::vector<ParamView> Linear::params() {
  require_trainable("params");
  invalidate_pack();  // callers hold mutable views past this call
  return {ParamView{weights_.flat(), weight_grad_.flat()},
          ParamView{bias_, bias_grad_}};
}

void Linear::zero_grad() {
  require_trainable("zero_grad");
  weight_grad_.fill(0.0);
  for (double& g : bias_grad_) g = 0.0;
}

const tensor::Matrix& Linear::weights() const {
  require_trainable("weights");
  return weights_;
}

tensor::Matrix& Linear::weights() {
  require_trainable("weights");
  invalidate_pack();
  return weights_;
}

const tensor::Vector& Linear::bias() const {
  require_trainable("bias");
  return bias_;
}

tensor::Vector& Linear::bias() {
  require_trainable("bias");
  invalidate_pack();
  return bias_;
}

}  // namespace muffin::nn
