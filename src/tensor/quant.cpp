#include "tensor/quant.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>

#include "common/error.h"
#include "common/log.h"

namespace muffin::tensor {

QuantMode resolve_quant_mode(std::string_view env) {
  if (env.empty() || env == "off" || env == "0") return QuantMode::Off;
  if (env == "bf16") return QuantMode::Bf16;
  if (env == "int8" || env == "i8") return QuantMode::Int8;
  if (env == "auto" || env == "on" || env == "1") return QuantMode::Int8;
  MUFFIN_LOG_WARN << "unrecognized MUFFIN_QUANT value '" << std::string(env)
                  << "'; quantization stays off";
  return QuantMode::Off;
}

namespace {

/// -1 = not yet resolved; otherwise the QuantMode value. A single atomic
/// (not call_once) so set_quant_mode_for_testing can overwrite it.
std::atomic<int> g_quant_mode{-1};

int resolve_from_env() {
  const char* env = std::getenv("MUFFIN_QUANT");
  return static_cast<int>(
      resolve_quant_mode(env == nullptr ? std::string_view{} : env));
}

}  // namespace

QuantMode active_quant_mode() {
  int mode = g_quant_mode.load(std::memory_order_acquire);
  if (mode < 0) {
    const int resolved = resolve_from_env();
    // First resolver wins; a racing set_quant_mode_for_testing also wins.
    int expected = -1;
    if (g_quant_mode.compare_exchange_strong(expected, resolved,
                                             std::memory_order_acq_rel)) {
      mode = resolved;
    } else {
      mode = expected;
    }
  }
  return static_cast<QuantMode>(mode);
}

void set_quant_mode_for_testing(QuantMode mode) {
  g_quant_mode.store(static_cast<int>(mode), std::memory_order_release);
}

std::string_view quant_mode_name(QuantMode mode) {
  switch (mode) {
    case QuantMode::Bf16:
      return "bf16";
    case QuantMode::Int8:
      return "int8";
    case QuantMode::Off:
      break;
  }
  return "off";
}

double i8_scale_from_maxabs(double maxabs) {
  return maxabs > 0.0 ? maxabs / 127.0 : 1.0;
}

double i8_scale(std::span<const double> values) {
  double maxabs = 0.0;
  for (const double v : values) maxabs = std::max(maxabs, std::abs(v));
  return i8_scale_from_maxabs(maxabs);
}

std::int8_t i8_from_double(double v, double scale) {
  MUFFIN_REQUIRE(scale > 0.0, "int8 quantization scale must be positive");
  const double scaled = std::nearbyint(v / scale);
  const double clamped = std::min(127.0, std::max(-127.0, scaled));
  return static_cast<std::int8_t>(clamped);
}

namespace {

std::size_t element_bytes(QuantMode mode) {
  switch (mode) {
    case QuantMode::Bf16:
      return sizeof(std::uint16_t);
    case QuantMode::Int8:
      return sizeof(std::int8_t);
    case QuantMode::Off:
      break;
  }
  return sizeof(double);
}

std::size_t scale_count(QuantMode mode, std::size_t cols) {
  return mode == QuantMode::Int8 ? cols : 0;
}

}  // namespace

std::size_t quant_encoded_bytes(QuantMode mode, std::size_t rows,
                                std::size_t cols) {
  return rows * cols * element_bytes(mode) +
         scale_count(mode, cols) * sizeof(double);
}

void quant_encode(QuantMode mode, std::size_t rows, std::size_t cols,
                  const double* src, std::size_t row_stride,
                  std::size_t col_stride, std::span<std::byte> dst) {
  MUFFIN_REQUIRE(src != nullptr || rows * cols == 0,
                 "quant_encode needs a source for a non-empty matrix");
  MUFFIN_REQUIRE(dst.size() == quant_encoded_bytes(mode, rows, cols),
                 "quant_encode destination has the wrong size");
  const auto at = [&](std::size_t r, std::size_t c) {
    return src[r * row_stride + c * col_stride];
  };
  std::byte* const payload =
      dst.data() + scale_count(mode, cols) * sizeof(double);
  switch (mode) {
    case QuantMode::Off: {
      double* q = reinterpret_cast<double*>(payload);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) q[r * cols + c] = at(r, c);
      }
      break;
    }
    case QuantMode::Bf16: {
      std::uint16_t* q = reinterpret_cast<std::uint16_t*>(payload);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          q[r * cols + c] = bf16_from_double(at(r, c));
        }
      }
      break;
    }
    case QuantMode::Int8: {
      double* scales = reinterpret_cast<double*>(dst.data());
      for (std::size_t c = 0; c < cols; ++c) {
        double maxabs = 0.0;
        for (std::size_t r = 0; r < rows; ++r) {
          maxabs = std::max(maxabs, std::abs(at(r, c)));
        }
        scales[c] = i8_scale_from_maxabs(maxabs);
      }
      std::int8_t* q = reinterpret_cast<std::int8_t*>(payload);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          q[r * cols + c] = i8_from_double(at(r, c), scales[c]);
        }
      }
      break;
    }
  }
}

void quant_decode_rows(QuantMode mode, std::size_t rows, std::size_t cols,
                       std::span<const std::byte> src, std::size_t first,
                       std::size_t count, std::span<double> out) {
  MUFFIN_REQUIRE(src.size() == quant_encoded_bytes(mode, rows, cols),
                 "quant_decode_rows source has the wrong size");
  MUFFIN_REQUIRE(first + count <= rows, "quant_decode_rows row out of range");
  MUFFIN_REQUIRE(out.size() == count * cols,
                 "quant_decode_rows output has the wrong size");
  const std::byte* const payload =
      src.data() + scale_count(mode, cols) * sizeof(double);
  const std::size_t begin = first * cols;
  switch (mode) {
    case QuantMode::Off: {
      const double* q = reinterpret_cast<const double*>(payload) + begin;
      std::copy(q, q + out.size(), out.begin());
      break;
    }
    case QuantMode::Bf16: {
      const std::uint16_t* q =
          reinterpret_cast<const std::uint16_t*>(payload) + begin;
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = bf16_to_double(q[i]);
      }
      break;
    }
    case QuantMode::Int8: {
      const std::int8_t* q =
          reinterpret_cast<const std::int8_t*>(payload) + begin;
      const double* scales = reinterpret_cast<const double*>(src.data());
      for (std::size_t r = 0; r < count; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          out[r * cols + c] = i8_to_double(q[r * cols + c], scales[c]);
        }
      }
      break;
    }
  }
}

QuantMatrix::QuantMatrix(QuantMode mode, std::size_t rows, std::size_t cols)
    : mode_(mode), rows_(rows), cols_(cols) {
  buffer_ = std::make_unique_for_overwrite<std::byte[]>(footprint_bytes());
}

QuantMatrix::QuantMatrix(QuantMode mode, std::size_t rows, std::size_t cols,
                         const double* src, std::size_t row_stride,
                         std::size_t col_stride)
    : QuantMatrix(mode, rows, cols) {
  quant_encode(mode, rows, cols, src, row_stride, col_stride, encoded());
}

QuantMatrix QuantMatrix::from_encoded(QuantMode mode, std::size_t rows,
                                      std::size_t cols,
                                      std::span<const std::byte> payload,
                                      std::span<const double> scales) {
  QuantMatrix matrix(mode, rows, cols);
  MUFFIN_REQUIRE(payload.size() == rows * cols * element_bytes(mode),
                 "encoded payload size does not match the matrix shape");
  MUFFIN_REQUIRE(scales.size() == matrix.scale_count(),
                 "encoded int8 payload needs one scale per column");
  std::copy(scales.begin(), scales.end(), matrix.scale_data());
  std::copy(payload.begin(), payload.end(), matrix.payload<std::byte>());
  return matrix;
}

std::size_t QuantMatrix::scale_count() const {
  return muffin::tensor::scale_count(mode_, cols_);
}

std::size_t QuantMatrix::footprint_bytes() const {
  return quant_encoded_bytes(mode_, rows_, cols_);
}

void QuantMatrix::decode_row(std::size_t r, std::span<double> out) const {
  quant_decode_rows(mode_, rows_, cols_, encoded(), r, 1, out);
}

void QuantMatrix::decode(std::span<double> out) const {
  quant_decode_rows(mode_, rows_, cols_, encoded(), 0, rows_, out);
}

std::span<const double> QuantMatrix::f64() const {
  MUFFIN_REQUIRE(mode_ == QuantMode::Off, "QuantMatrix is not f64");
  return {payload<const double>(), rows_ * cols_};
}

std::span<const std::uint16_t> QuantMatrix::bf16() const {
  MUFFIN_REQUIRE(mode_ == QuantMode::Bf16, "QuantMatrix is not bf16");
  return {payload<const std::uint16_t>(), rows_ * cols_};
}

std::span<const std::int8_t> QuantMatrix::i8() const {
  MUFFIN_REQUIRE(mode_ == QuantMode::Int8, "QuantMatrix is not int8");
  return {payload<const std::int8_t>(), rows_ * cols_};
}

std::span<const double> QuantMatrix::scales() const {
  return {scale_data(), scale_count()};
}

}  // namespace muffin::tensor
