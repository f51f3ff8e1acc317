// Quantization primitives and the dequantizing GEMM entries.
//
// Pins the storage-level contracts (bf16 RNE rounding, int8 symmetric
// scaling, QuantMatrix encode/decode and the k-major pack layout built
// from it), the MUFFIN_QUANT resolution rule, and
// the bit-identity contract of the quantized kernels: within one mode,
// every usable backend, partition and batch size produces bit-identical
// output (the quant analogue of SimdBackends in test_simd.cpp).
#include "tensor/quant.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.h"
#include "common/rng.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

namespace muffin::tensor {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  SplitRng rng(seed);
  Matrix m(rows, cols);
  for (double& v : m.flat()) v = rng.normal(0.0, 1.7);
  return m;
}

Vector random_vector(std::size_t n, std::uint64_t seed) {
  SplitRng rng(seed);
  Vector v(n);
  for (double& x : v) x = rng.normal(0.0, 0.9);
  return v;
}

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ---------------------------------------------------------------- bf16

TEST(Bf16, RepresentableValuesRoundTripExactly) {
  // Values whose float32 form has a zero low half survive the trip.
  for (const double v : {0.0, 1.0, -1.0, 0.5, -0.25, 2.0, 128.0, -0.0078125}) {
    EXPECT_EQ(bf16_to_double(bf16_from_double(v)), v) << v;
  }
}

TEST(Bf16, RoundsToNearestEven) {
  // 1.0 + 2^-8 sits exactly between bf16(1.0) (0x3F80) and the next grid
  // point (0x3F81); RNE picks the even mantissa, i.e. 1.0.
  EXPECT_EQ(bf16_from_double(1.0 + 0.00390625), 0x3F80u);
  // 1.0 + 3 * 2^-8 ties between 0x3F81 and 0x3F82; RNE picks 0x3F82.
  EXPECT_EQ(bf16_from_double(1.0 + 3 * 0.00390625), 0x3F82u);
  // Anything past the midpoint rounds up.
  EXPECT_EQ(bf16_from_double(1.004), 0x3F81u);
}

TEST(Bf16, SpecialsSurvive) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(bf16_to_double(bf16_from_double(inf)), inf);
  EXPECT_EQ(bf16_to_double(bf16_from_double(-inf)), -inf);
  EXPECT_TRUE(std::isnan(
      bf16_to_double(bf16_from_double(std::numeric_limits<double>::quiet_NaN()))));
  // Signed zero keeps its sign bit.
  EXPECT_TRUE(std::signbit(bf16_to_double(bf16_from_double(-0.0))));
}

TEST(Bf16, ErrorBoundedByHalfUlp) {
  SplitRng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(0.0, 10.0);
    const double back = bf16_to_double(bf16_from_double(v));
    // bf16 has an 8-bit significand: relative error <= 2^-9 + float32
    // narrowing slack.
    EXPECT_NEAR(back, v, std::abs(v) * (1.0 / 256.0) + 1e-30) << v;
  }
}

// ---------------------------------------------------------------- int8

TEST(Int8, ScaleRuleAndDegenerateSpans) {
  const Vector values = {0.5, -2.54, 1.0};
  EXPECT_EQ(i8_scale(values), 2.54 / 127.0);
  EXPECT_EQ(i8_scale(Vector{}), 1.0);
  EXPECT_EQ(i8_scale(Vector{0.0, 0.0}), 1.0);
  EXPECT_EQ(i8_scale_from_maxabs(2.54), 2.54 / 127.0);
  EXPECT_EQ(i8_scale_from_maxabs(0.0), 1.0);
}

TEST(Int8, QuantizeRoundsAndClamps) {
  EXPECT_EQ(i8_from_double(0.0, 1.0), 0);
  EXPECT_EQ(i8_from_double(1.49, 1.0), 1);
  EXPECT_EQ(i8_from_double(2.5, 1.0), 2);  // round-half-to-even
  EXPECT_EQ(i8_from_double(-2.5, 1.0), -2);
  EXPECT_EQ(i8_from_double(500.0, 1.0), 127);
  EXPECT_EQ(i8_from_double(-500.0, 1.0), -127);
  // At the span's own scale, maxabs maps to +-127 exactly.
  EXPECT_EQ(i8_from_double(2.54, 2.54 / 127.0), 127);
  EXPECT_EQ(i8_from_double(-2.54, 2.54 / 127.0), -127);
}

TEST(Int8, DequantizeIsExactProduct) {
  const double scale = 0.031;
  for (int q = -127; q <= 127; ++q) {
    EXPECT_EQ(i8_to_double(static_cast<std::int8_t>(q), scale),
              static_cast<double>(q) * scale);
  }
}

// -------------------------------------------------------- mode resolve

TEST(QuantModeResolve, Table) {
  EXPECT_EQ(resolve_quant_mode(""), QuantMode::Off);
  EXPECT_EQ(resolve_quant_mode("off"), QuantMode::Off);
  EXPECT_EQ(resolve_quant_mode("0"), QuantMode::Off);
  EXPECT_EQ(resolve_quant_mode("bf16"), QuantMode::Bf16);
  EXPECT_EQ(resolve_quant_mode("int8"), QuantMode::Int8);
  EXPECT_EQ(resolve_quant_mode("i8"), QuantMode::Int8);
  EXPECT_EQ(resolve_quant_mode("auto"), QuantMode::Int8);
  EXPECT_EQ(resolve_quant_mode("on"), QuantMode::Int8);
  EXPECT_EQ(resolve_quant_mode("1"), QuantMode::Int8);
  EXPECT_EQ(resolve_quant_mode("garbage"), QuantMode::Off);
}

TEST(QuantModeResolve, ScopedOverrideRestores) {
  const QuantMode before = active_quant_mode();
  {
    const ScopedQuantMode pin(QuantMode::Bf16);
    EXPECT_EQ(active_quant_mode(), QuantMode::Bf16);
    {
      const ScopedQuantMode nested(QuantMode::Int8);
      EXPECT_EQ(active_quant_mode(), QuantMode::Int8);
    }
    EXPECT_EQ(active_quant_mode(), QuantMode::Bf16);
  }
  EXPECT_EQ(active_quant_mode(), before);
}

TEST(QuantModeResolve, Names) {
  EXPECT_EQ(quant_mode_name(QuantMode::Off), "off");
  EXPECT_EQ(quant_mode_name(QuantMode::Bf16), "bf16");
  EXPECT_EQ(quant_mode_name(QuantMode::Int8), "int8");
}

// --------------------------------------------------------- QuantMatrix

constexpr QuantMode kModes[] = {QuantMode::Off, QuantMode::Bf16,
                                QuantMode::Int8};

/// What the elementwise primitives make of `v` in `mode` (`scale` is the
/// int8 column scale).
double elementwise(QuantMode mode, double v, double scale) {
  switch (mode) {
    case QuantMode::Bf16:
      return bf16_to_double(bf16_from_double(v));
    case QuantMode::Int8:
      return i8_to_double(i8_from_double(v, scale), scale);
    case QuantMode::Off:
      break;
  }
  return v;
}

/// Checks that `q` decodes element (r, c) to the elementwise primitive of
/// value(r, c), with int8 column scale maxabs(column c) / 127.
template <typename Value>
void expect_elementwise_decode(const QuantMatrix& q, Value value) {
  const std::size_t rows = q.rows();
  const std::size_t cols = q.cols();
  Vector scales(cols, 0.0);
  for (std::size_t c = 0; c < cols; ++c) {
    double maxabs = 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
      maxabs = std::max(maxabs, std::abs(value(r, c)));
    }
    scales[c] = maxabs / 127.0;
  }
  if (q.mode() == QuantMode::Int8) {
    ASSERT_EQ(q.scales().size(), cols);
    for (std::size_t c = 0; c < cols; ++c) EXPECT_EQ(q.scales()[c], scales[c]);
  } else {
    EXPECT_TRUE(q.scales().empty());
  }
  Vector all(rows * cols);
  q.decode(all);
  Vector row(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    q.decode_row(r, row);
    for (std::size_t c = 0; c < cols; ++c) {
      const double expected = elementwise(q.mode(), value(r, c), scales[c]);
      EXPECT_EQ(row[c], expected)
          << quant_mode_name(q.mode()) << " (" << r << ", " << c << ")";
      EXPECT_EQ(all[r * cols + c], expected);
    }
  }
}

TEST(QuantMatrix, RowMajorSourceDecodesToElementwisePrimitives) {
  const Matrix src = random_matrix(7, 5, 21);
  for (const QuantMode mode : kModes) {
    const QuantMatrix q(mode, 7, 5, src.flat().data(), src.stride(), 1);
    EXPECT_EQ(q.mode(), mode);
    EXPECT_EQ(q.rows(), 7u);
    EXPECT_EQ(q.cols(), 5u);
    expect_elementwise_decode(
        q, [&](std::size_t r, std::size_t c) { return src(r, c); });
  }
}

TEST(QuantMatrix, TransposedSourceDecodesToElementwisePrimitives) {
  // Rows of the matrix are columns of the source: strides (1, stride).
  const Matrix src = random_matrix(5, 7, 22);
  for (const QuantMode mode : kModes) {
    const QuantMatrix q(mode, 7, 5, src.flat().data(), 1, src.stride());
    expect_elementwise_decode(
        q, [&](std::size_t r, std::size_t c) { return src(c, r); });
  }
}

TEST(QuantMatrix, SingleColumnHasOneScaleOverTheVector) {
  const Vector values = random_vector(13, 23);
  const QuantMatrix q(QuantMode::Int8, values.size(), 1, values.data(), 1, 1);
  ASSERT_EQ(q.scales().size(), 1u);
  EXPECT_EQ(q.scales()[0], i8_scale(values));
  expect_elementwise_decode(
      q, [&](std::size_t r, std::size_t) { return values[r]; });
  // An all-zero column still decodes (scale 1.0, every q = 0).
  const Vector zeros(4, 0.0);
  const QuantMatrix z(QuantMode::Int8, 4, 1, zeros.data(), 1, 1);
  EXPECT_EQ(z.scales()[0], 1.0);
  Vector out(4, -1.0);
  z.decode(out);
  EXPECT_EQ(out, zeros);
}

TEST(QuantMatrix, FootprintIsPayloadPlusEightBytesPerInt8Column) {
  const Matrix src = random_matrix(6, 3, 24);
  const auto footprint = [&](QuantMode mode) {
    return QuantMatrix(mode, 6, 3, src.flat().data(), 3, 1).footprint_bytes();
  };
  EXPECT_EQ(footprint(QuantMode::Off), 6u * 3u * 8u);
  EXPECT_EQ(footprint(QuantMode::Bf16), 6u * 3u * 2u);
  EXPECT_EQ(footprint(QuantMode::Int8), 6u * 3u + 3u * 8u);
  EXPECT_EQ(QuantMatrix().footprint_bytes(), 0u);
}

TEST(QuantMatrix, TypedViewsMatchTheirModeOnly) {
  const Matrix src = random_matrix(4, 3, 25);
  const QuantMatrix off(QuantMode::Off, 4, 3, src.flat().data(), 3, 1);
  const QuantMatrix bf16(QuantMode::Bf16, 4, 3, src.flat().data(), 3, 1);
  const QuantMatrix i8(QuantMode::Int8, 4, 3, src.flat().data(), 3, 1);
  EXPECT_TRUE(bitwise_equal(off.f64(), src.flat()));
  EXPECT_EQ(bf16.bf16()[5], bf16_from_double(src(1, 2)));
  EXPECT_EQ(i8.i8()[5], i8_from_double(src(1, 2), i8.scales()[2]));
  EXPECT_THROW((void)off.bf16(), Error);
  EXPECT_THROW((void)bf16.i8(), Error);
  EXPECT_THROW((void)i8.f64(), Error);
  Vector row(3);
  EXPECT_THROW(off.decode_row(4, row), Error);
  Vector short_row(2);
  EXPECT_THROW(off.decode_row(0, short_row), Error);
}

TEST(QuantMatrix, FromEncodedDecodesLikeTheEncoder) {
  const Matrix src = random_matrix(6, 4, 26);
  for (const QuantMode mode : kModes) {
    const QuantMatrix q(mode, 6, 4, src.flat().data(), 4, 1);
    std::span<const std::byte> payload;
    switch (mode) {
      case QuantMode::Off:
        payload = std::as_bytes(q.f64());
        break;
      case QuantMode::Bf16:
        payload = std::as_bytes(q.bf16());
        break;
      case QuantMode::Int8:
        payload = std::as_bytes(q.i8());
        break;
    }
    const QuantMatrix copy =
        QuantMatrix::from_encoded(mode, 6, 4, payload, q.scales());
    Vector a(24);
    Vector b(24);
    q.decode(a);
    copy.decode(b);
    EXPECT_TRUE(bitwise_equal(a, b)) << quant_mode_name(mode);
    EXPECT_EQ(copy.footprint_bytes(), q.footprint_bytes());
    EXPECT_THROW((void)QuantMatrix::from_encoded(mode, 6, 3, payload,
                                                 q.scales()),
                 Error);
  }
  const QuantMatrix i8(QuantMode::Int8, 6, 4, src.flat().data(), 4, 1);
  EXPECT_THROW((void)QuantMatrix::from_encoded(QuantMode::Int8, 6, 4,
                                               std::as_bytes(i8.i8()), {}),
               Error);
}

// ------------------------------------------------------------ packing

/// The GEMM weight pack of a row-major (m x depth) weight matrix: the
/// depth x m transposed view, k-major with per-output-column scales.
QuantMatrix pack_of(const Matrix& w, QuantMode mode) {
  return QuantMatrix(mode, w.cols(), w.rows(), w.flat().data(), 1,
                     w.stride());
}

TEST(QuantPack, KMajorLayoutBf16) {
  const Matrix w = random_matrix(5, 9, 11);
  const QuantMatrix pack = pack_of(w, QuantMode::Bf16);
  ASSERT_EQ(pack.mode(), QuantMode::Bf16);
  ASSERT_EQ(pack.cols(), 5u);
  ASSERT_EQ(pack.rows(), 9u);
  ASSERT_EQ(pack.bf16().size(), 45u);
  for (std::size_t j = 0; j < 5; ++j) {
    for (std::size_t k = 0; k < 9; ++k) {
      EXPECT_EQ(pack.bf16()[k * 5 + j], bf16_from_double(w(j, k)));
    }
  }
}

TEST(QuantPack, KMajorLayoutInt8WithPerColumnScales) {
  const Matrix w = random_matrix(4, 7, 13);
  const QuantMatrix pack = pack_of(w, QuantMode::Int8);
  ASSERT_EQ(pack.mode(), QuantMode::Int8);
  ASSERT_EQ(pack.scales().size(), 4u);
  for (std::size_t j = 0; j < 4; ++j) {
    double maxabs = 0.0;
    for (std::size_t k = 0; k < 7; ++k) maxabs = std::max(maxabs, std::abs(w(j, k)));
    EXPECT_EQ(pack.scales()[j], i8_scale_from_maxabs(maxabs));
    EXPECT_EQ(pack.scales()[j], i8_scale(w.row(j)));
    for (std::size_t k = 0; k < 7; ++k) {
      EXPECT_EQ(pack.i8()[k * 4 + j],
                i8_from_double(w(j, k), pack.scales()[j]));
    }
  }
  EXPECT_EQ(pack.footprint_bytes(), 4u * 7u + 4u * 8u);
}

TEST(QuantPack, StridedWeightsMatchAnExplicitKMajorCopy) {
  const Matrix w = random_matrix(6, 8, 17);
  Matrix k_major(8, 6);
  for (std::size_t j = 0; j < 6; ++j) {
    for (std::size_t k = 0; k < 8; ++k) k_major(k, j) = w(j, k);
  }
  for (const QuantMode mode : {QuantMode::Bf16, QuantMode::Int8}) {
    const QuantMatrix a = pack_of(w, mode);
    const QuantMatrix b(mode, 8, 6, k_major.flat().data(), k_major.stride(),
                        1);
    if (mode == QuantMode::Bf16) {
      EXPECT_TRUE(std::ranges::equal(a.bf16(), b.bf16()));
    } else {
      EXPECT_TRUE(std::ranges::equal(a.i8(), b.i8()));
    }
    EXPECT_TRUE(bitwise_equal(a.scales(), b.scales()));
  }
}

TEST(QuantPack, RejectsOffMode) {
  // The dequantizing GEMM needs a quantized pack; an f64 matrix belongs
  // to the float GEMM.
  const Matrix a = random_matrix(3, 2, 18);
  const Matrix w = random_matrix(2, 2, 19);
  const Vector bias = random_vector(2, 20);
  Matrix out;
  EXPECT_THROW(matmul_transposed_b_bias_quant_into(
                   a, pack_of(w, QuantMode::Off), bias, out),
               Error);
}

// ------------------------------------------------- dequantizing GEMMs

struct Shape {
  std::size_t n, m, depth;
};
constexpr Shape kShapes[] = {
    {1, 1, 1}, {2, 4, 3},  {3, 5, 7},    {1, 8, 16},  {7, 9, 11},
    {5, 3, 1}, {8, 6, 2},  {64, 33, 17}, {65, 8, 24}, {31, 12, 5},
};

std::vector<const detail::KernelTable*> usable_vector_backends() {
  std::vector<const detail::KernelTable*> backends;
  if (detail::avx2_kernels() != nullptr && detail::cpu_supports_avx2_fma()) {
    backends.push_back(detail::avx2_kernels());
  }
  if (detail::avx512_kernels() != nullptr && detail::cpu_supports_avx512f()) {
    backends.push_back(detail::avx512_kernels());
  }
  return backends;
}

TEST(QuantGemm, Bf16BitIdenticalAcrossBackends) {
  const detail::KernelTable& scalar = detail::scalar_kernels();
  std::uint64_t seed = 300;
  for (const Shape& shape : kShapes) {
    const Matrix a = random_matrix(shape.n, shape.depth, seed++);
    const Matrix w = random_matrix(shape.m, shape.depth, seed++);
    const Vector bias = random_vector(shape.m, seed++);
    const QuantMatrix pack = pack_of(w, QuantMode::Bf16);
    Matrix expected(shape.n, shape.m, -1.0);
    scalar.gemm_tb_bf16(a.flat().data(), a.stride(), pack.bf16().data(),
                        shape.m, bias.data(), expected.flat().data(),
                        expected.stride(), shape.n, shape.m, shape.depth);
    for (const detail::KernelTable* backend : usable_vector_backends()) {
      Matrix out(shape.n, shape.m, -2.0);
      backend->gemm_tb_bf16(a.flat().data(), a.stride(), pack.bf16().data(),
                            shape.m, bias.data(), out.flat().data(),
                            out.stride(), shape.n, shape.m, shape.depth);
      EXPECT_TRUE(bitwise_equal(expected.flat(), out.flat()))
          << backend->name << " n=" << shape.n << " m=" << shape.m
          << " depth=" << shape.depth;
    }
  }
}

TEST(QuantGemm, Int8BitIdenticalAcrossBackends) {
  const detail::KernelTable& scalar = detail::scalar_kernels();
  std::uint64_t seed = 400;
  for (const Shape& shape : kShapes) {
    const Matrix a = random_matrix(shape.n, shape.depth, seed++);
    const Matrix w = random_matrix(shape.m, shape.depth, seed++);
    const Vector bias = random_vector(shape.m, seed++);
    const QuantMatrix pack = pack_of(w, QuantMode::Int8);
    Matrix expected(shape.n, shape.m, -1.0);
    scalar.gemm_tb_i8(a.flat().data(), a.stride(), pack.i8().data(), shape.m,
                      pack.scales().data(), bias.data(), expected.flat().data(),
                      expected.stride(), shape.n, shape.m, shape.depth);
    for (const detail::KernelTable* backend : usable_vector_backends()) {
      Matrix out(shape.n, shape.m, -2.0);
      backend->gemm_tb_i8(a.flat().data(), a.stride(), pack.i8().data(),
                          shape.m, pack.scales().data(), bias.data(),
                          out.flat().data(), out.stride(), shape.n, shape.m,
                          shape.depth);
      EXPECT_TRUE(bitwise_equal(expected.flat(), out.flat()))
          << backend->name << " n=" << shape.n << " m=" << shape.m
          << " depth=" << shape.depth;
    }
  }
}

TEST(QuantGemm, SingleRowEqualsBatchRow) {
  // The partition-independence half of the bit-identity contract: row i
  // of a batched call equals the same row scored alone.
  for (const QuantMode mode : {QuantMode::Bf16, QuantMode::Int8}) {
    const Matrix a = random_matrix(9, 12, 500);
    const Matrix w = random_matrix(6, 12, 501);
    const Vector bias = random_vector(6, 502);
    const QuantMatrix pack = pack_of(w, mode);
    Matrix batched;
    matmul_transposed_b_bias_quant_into(a, pack, bias, batched);
    for (std::size_t r = 0; r < a.rows(); ++r) {
      Matrix single_in(1, 12);
      const auto row = a.row(r);
      std::copy(row.begin(), row.end(), single_in.flat().begin());
      Matrix single_out;
      matmul_transposed_b_bias_quant_into(single_in, pack, bias, single_out);
      EXPECT_TRUE(bitwise_equal(single_out.row(0), batched.row(r)))
          << quant_mode_name(mode) << " row " << r;
    }
  }
}

TEST(QuantGemm, DequantizedResultTracksFloatGemm) {
  const Matrix a = random_matrix(16, 20, 600);
  const Matrix w = random_matrix(10, 20, 601);
  const Vector bias = random_vector(10, 602);
  Matrix exact;
  matmul_transposed_b_bias_into(a, w, bias, exact);
  for (const QuantMode mode : {QuantMode::Bf16, QuantMode::Int8}) {
    const QuantMatrix pack = pack_of(w, mode);
    Matrix out;
    matmul_transposed_b_bias_quant_into(a, pack, bias, out);
    // Crude error model: per-element weight error is bounded by the
    // storage grid (bf16 half-ulp, int8 scale/2) times the L1 mass of
    // the activations.
    double max_activation_l1 = 0.0;
    for (std::size_t r = 0; r < a.rows(); ++r) {
      double l1 = 0.0;
      for (const double v : a.row(r)) l1 += std::abs(v);
      max_activation_l1 = std::max(max_activation_l1, l1);
    }
    double max_grid = 0.0;
    if (mode == QuantMode::Bf16) {
      for (const double v : w.flat()) {
        max_grid = std::max(max_grid, std::abs(v) / 256.0);
      }
    } else {
      for (const double s : pack.scales()) max_grid = std::max(max_grid, s);
    }
    const double bound = max_activation_l1 * max_grid;
    for (std::size_t i = 0; i < exact.flat().size(); ++i) {
      EXPECT_NEAR(out.flat()[i], exact.flat()[i], bound) << i;
    }
  }
}

TEST(QuantGemm, WrapperValidatesArguments) {
  const Matrix a = random_matrix(3, 5, 700);
  const Matrix w = random_matrix(4, 5, 701);
  const Vector bias = random_vector(4, 702);
  Matrix out;
  const QuantMatrix pack = pack_of(w, QuantMode::Int8);
  const Matrix bad_a = random_matrix(3, 6, 703);
  EXPECT_THROW(matmul_transposed_b_bias_quant_into(bad_a, pack, bias, out),
               Error);
  const Vector bad_bias = random_vector(3, 704);
  EXPECT_THROW(matmul_transposed_b_bias_quant_into(a, pack, bad_bias, out),
               Error);
}

TEST(QuantGemm, ActiveTableHasQuantEntriesOnEveryBackend) {
  EXPECT_NE(detail::scalar_kernels().gemm_tb_bf16, nullptr);
  EXPECT_NE(detail::scalar_kernels().gemm_tb_i8, nullptr);
  for (const detail::KernelTable* backend : usable_vector_backends()) {
    EXPECT_NE(backend->gemm_tb_bf16, nullptr) << backend->name;
    EXPECT_NE(backend->gemm_tb_i8, nullptr) << backend->name;
  }
  EXPECT_NE(detail::active_kernels().gemm_tb_bf16, nullptr);
  EXPECT_NE(detail::active_kernels().gemm_tb_i8, nullptr);
}

}  // namespace
}  // namespace muffin::tensor
