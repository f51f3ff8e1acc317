#include "nn/layer.h"

#include <algorithm>

#include "common/error.h"

namespace muffin::nn {

const tensor::Matrix& Layer::forward_batch(const tensor::Matrix& input) {
  batch_output_.resize_for_overwrite(input.rows(), output_dim());
  for (std::size_t r = 0; r < input.rows(); ++r) {
    const tensor::Vector row_out = forward(input.row(r));
    std::copy(row_out.begin(), row_out.end(), batch_output_.row(r).begin());
  }
  return batch_output_;
}

const tensor::Matrix& Layer::backward_batch(
    const tensor::Matrix& /*grad_output*/, bool /*input_grad*/) {
  throw Error("layer does not implement batched backward");
}

tensor::Matrix Layer::forward_batch_inference(
    const tensor::Matrix& input) const {
  tensor::Matrix out;
  forward_batch_inference_into(input, out);
  return out;
}

void Layer::forward_batch_inference_into(const tensor::Matrix& input,
                                         tensor::Matrix& output) const {
  output.resize_for_overwrite(input.rows(), output_dim());
  for (std::size_t r = 0; r < input.rows(); ++r) {
    const tensor::Vector row_out = forward_inference(input.row(r));
    std::copy(row_out.begin(), row_out.end(), output.row(r).begin());
  }
}

std::size_t Layer::parameter_count() const {
  std::size_t count = 0;
  // params() is logically const but exposes mutable spans; cast for counting.
  for (const auto& view : const_cast<Layer*>(this)->params()) {
    count += view.value.size();
  }
  return count;
}

}  // namespace muffin::nn
