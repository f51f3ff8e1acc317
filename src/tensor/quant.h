// Quantized storage: one bf16/int8 matrix type for weights and score
// state, behind the same runtime-dispatch philosophy as simd.h.
//
// One encoded layout is the only quantized format. It holds a rows x cols
// matrix in one QuantMode, encoded from a strided f64 source by two
// rules: bf16 keeps the top 16 bits of the float32 value with
// round-to-nearest-even, elementwise; int8 is symmetric with one scale
// per column (scale_c = maxabs(column c) / 127), so a vector or a whole
// plane stored as one column has one scale. Decoding is exact (a bf16
// widening or an int8 * f64 product), so a stored-then-reloaded value is
// deterministic. quant_encode/quant_decode_rows read and write it over a
// caller's bytes; QuantMatrix is the owning store built on them. Four
// users:
//
//  * core::ScoreCache: one records x classes matrix per body model,
//    decoded row by row on gather.
//  * The engine's result memo (serve/result_memo.h): each reply is a
//    C x 1 matrix encoded into its slot of one slab, one scale per reply
//    vector.
//  * nn::Linear's GEMM weight pack: the depth x m matrix read from the
//    row-major (m x depth) weights with strides (1, depth). That is the
//    k-major layout the dequantizing GEMM entries of the kernel table
//    (simd.h) consume (q[k * m + j]: vector lanes sweep output columns j
//    over contiguous narrow loads), with per-output-column scales.
//  * nn::Mlp's head artifacts: each weight and bias plane is an n x 1
//    matrix, one scale per plane.
//
// Mode selection mirrors MUFFIN_SIMD: the MUFFIN_QUANT environment
// variable is resolved once per process on first use ("off"/unset keeps
// the float paths, "bf16"/"int8" force a width, "auto"/"on" picks int8 —
// the leanest mode that passes the accuracy gate pinned by the tests and
// bench_batch). resolve_quant_mode is the pure rule, unit-tested without
// touching the process environment; set_quant_mode_for_testing overrides
// the resolved mode so one process can exercise every storage width
// (bench_batch's memory section, the parity suites).
//
// Accuracy contract (pinned in tests/models/test_quant_parity.cpp and
// gated in bench_batch's exit code): quantized argmax parity vs the
// float path on the test corpus, fairness reports within tolerance.
// Bit-identity contract: within one mode, every SIMD backend produces
// bit-identical output (the dequantizing GEMM bodies are shared
// elementwise column sweeps compiled per-TU, like kernels_planar.h), and
// a single-row call equals the same row of any batch.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

namespace muffin::tensor {

enum class QuantMode {
  Off,   ///< float64 everywhere (the default; bit-identical to pre-quant)
  Bf16,  ///< 2-byte truncated-float storage, ~3 significant decimal digits
  Int8,  ///< 1-byte symmetric per-column quantization, leanest mode
};

/// Pure resolution rule for the MUFFIN_QUANT value (empty when unset):
/// "off"/"0"/empty -> Off, "bf16" -> Bf16, "int8"/"i8" -> Int8,
/// "auto"/"on"/"1" -> Int8. Unknown values warn and fall back to Off.
[[nodiscard]] QuantMode resolve_quant_mode(std::string_view env);

/// The mode this process serves with: MUFFIN_QUANT resolved once on first
/// use, unless overridden by set_quant_mode_for_testing.
[[nodiscard]] QuantMode active_quant_mode();

/// Override the active mode (benches and parity tests exercise several
/// widths in one process). Layers re-pack lazily on the next quantized
/// inference; components that capture the mode at construction
/// (ScoreCache, InferenceEngine) must be rebuilt to observe the change.
void set_quant_mode_for_testing(QuantMode mode);

[[nodiscard]] std::string_view quant_mode_name(QuantMode mode);

/// RAII pin of the process-wide quant mode (tests and benches): sets
/// `mode` on construction, restores the previous mode on destruction.
class ScopedQuantMode {
 public:
  explicit ScopedQuantMode(QuantMode mode) : previous_(active_quant_mode()) {
    set_quant_mode_for_testing(mode);
  }
  ~ScopedQuantMode() { set_quant_mode_for_testing(previous_); }
  ScopedQuantMode(const ScopedQuantMode&) = delete;
  ScopedQuantMode& operator=(const ScopedQuantMode&) = delete;

 private:
  QuantMode previous_;
};

// ---------------------------------------------------------------- bf16

/// bf16 <- f64: narrow to float32 (round-to-nearest-even), keep the top
/// 16 bits with RNE on the dropped half. NaN stays NaN (quietened).
[[nodiscard]] inline std::uint16_t bf16_from_double(double v) {
  const std::uint32_t bits =
      std::bit_cast<std::uint32_t>(static_cast<float>(v));
  if ((bits & 0x7fffffffu) > 0x7f800000u) {
    return static_cast<std::uint16_t>((bits >> 16) | 0x0040u);
  }
  const std::uint32_t rounding = 0x7fffu + ((bits >> 16) & 1u);
  return static_cast<std::uint16_t>((bits + rounding) >> 16);
}

/// f64 <- bf16: exact widening (a bf16 is a float32 with a zero low half,
/// and every float32 is exactly representable as f64).
[[nodiscard]] inline double bf16_to_double(std::uint16_t v) {
  return static_cast<double>(
      std::bit_cast<float>(static_cast<std::uint32_t>(v) << 16));
}

// ---------------------------------------------------------------- int8

/// Symmetric scale for a value span: maxabs / 127, or 1.0 for an
/// all-zero (or empty) span so dequantization is always well-defined.
[[nodiscard]] double i8_scale(std::span<const double> values);
/// The scale rule applied to a precomputed max |value| (for strided data
/// where no contiguous span exists): maxabs / 127, or 1.0 when all zero.
[[nodiscard]] double i8_scale_from_maxabs(double maxabs);

/// q = clamp(round(v / scale), -127, 127). Requires scale > 0.
[[nodiscard]] std::int8_t i8_from_double(double v, double scale);

[[nodiscard]] inline double i8_to_double(std::int8_t q, double scale) {
  return static_cast<double>(q) * scale;
}

// ------------------------------------------------------ encoded layout

// The encoded form of a rows x cols matrix: for Int8, `cols` f64 scales
// first; then the row-major payload, rows * cols elements of the mode's
// width (f64, bf16 or int8). Scales first keeps both aligned in a buffer
// that starts 8-byte aligned.

/// Bytes of an encoded rows x cols matrix: the payload plus 8 per column
/// for the int8 scales.
[[nodiscard]] std::size_t quant_encoded_bytes(QuantMode mode,
                                              std::size_t rows,
                                              std::size_t cols);

/// Encode element (r, c) from src[r * row_stride + c * col_stride] into
/// the caller's `dst`: exactly quant_encoded_bytes(mode, rows, cols)
/// bytes, starting 8-byte aligned.
void quant_encode(QuantMode mode, std::size_t rows, std::size_t cols,
                  const double* src, std::size_t row_stride,
                  std::size_t col_stride, std::span<std::byte> dst);

/// Rows [first, first + count) of the rows x cols matrix quant_encode
/// wrote into `src`, dequantized row-major into `out` (count * cols).
void quant_decode_rows(QuantMode mode, std::size_t rows, std::size_t cols,
                       std::span<const std::byte> src, std::size_t first,
                       std::size_t count, std::span<double> out);

// --------------------------------------------------------- QuantMatrix

/// A rows x cols matrix of doubles stored in one QuantMode: f64 (Off),
/// bf16, or int8 with one symmetric scale per column. Element (r, c) sits
/// at payload index r * cols + c. The int8 scales and the payload share
/// one heap buffer in the encoded layout above, so a matrix is one
/// allocation in every mode.
class QuantMatrix {
 public:
  QuantMatrix() = default;
  /// Encode element (r, c) from src[r * row_stride + c * col_stride].
  QuantMatrix(QuantMode mode, std::size_t rows, std::size_t cols,
              const double* src, std::size_t row_stride,
              std::size_t col_stride);
  /// Adopt an already-encoded payload (rows * cols elements of the
  /// mode's width, e.g. an artifact tensor) and, for Int8, its `cols`
  /// scales; both are copied.
  [[nodiscard]] static QuantMatrix from_encoded(
      QuantMode mode, std::size_t rows, std::size_t cols,
      std::span<const std::byte> payload, std::span<const double> scales);

  [[nodiscard]] QuantMode mode() const { return mode_; }
  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  /// Row r dequantized into `out` (size cols()).
  void decode_row(std::size_t r, std::span<double> out) const;
  /// Every row, row-major, into `out` (size rows() * cols()).
  void decode(std::span<double> out) const;

  /// Typed payload views; each throws unless the mode matches.
  [[nodiscard]] std::span<const double> f64() const;
  [[nodiscard]] std::span<const std::uint16_t> bf16() const;
  [[nodiscard]] std::span<const std::int8_t> i8() const;
  /// The per-column scales: cols() values for Int8, empty otherwise.
  [[nodiscard]] std::span<const double> scales() const;

  /// Bytes held: the payload plus 8 per column for the int8 scales.
  [[nodiscard]] std::size_t footprint_bytes() const;

 private:
  /// Allocate the buffer for `mode` without encoding anything.
  QuantMatrix(QuantMode mode, std::size_t rows, std::size_t cols);
  [[nodiscard]] std::size_t scale_count() const;
  /// The int8 scales open the buffer; the payload follows them, which
  /// keeps both aligned.
  [[nodiscard]] double* scale_data() const {
    return reinterpret_cast<double*>(buffer_.get());
  }
  template <typename T>
  [[nodiscard]] T* payload() const {
    return reinterpret_cast<T*>(buffer_.get() +
                                scale_count() * sizeof(double));
  }
  [[nodiscard]] std::span<std::byte> encoded() const {
    return {buffer_.get(), footprint_bytes()};
  }

  QuantMode mode_ = QuantMode::Off;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::unique_ptr<std::byte[]> buffer_;
};

}  // namespace muffin::tensor
