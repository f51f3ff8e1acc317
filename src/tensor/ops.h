// Matrix/vector operations used by the nn module.
//
// All functions validate shapes with muffin::Error. Outputs are returned by
// value (small sizes; NRVO applies) except the *_into variants used on hot
// paths, which write into preallocated storage.
//
// The four hot kernels — matmul_into, matmul_transposed_b_into,
// matmul_transposed_b_bias_into and softmax_into — execute through the
// runtime-dispatched SIMD backend layer (tensor/simd.h: AVX2 when compiled
// in and reported by CPUID, scalar otherwise, MUFFIN_SIMD=off forces
// scalar), bit-identical to the scalar kernels in every backend. Each
// GEMM is one serial kernel call on the calling thread: at head shapes a
// whole GEMM costs a few microseconds, less than a hand-off to the worker
// pool, so parallelism lives in the callers (engine batches, search
// episodes, CalibratedModel::score_batch rows).
#pragma once

#include <cstdint>
#include <span>

#include "tensor/matrix.h"
#include "tensor/quant.h"

namespace muffin::tensor {

/// C = A * B. Requires A.cols() == B.rows().
///
/// i-k-j loop order with column tiling on B: the inner traversal stays
/// contiguous for row-major data and the active B/C row segments stay
/// cache-resident when B is wide. The per-element accumulation order over k
/// is unchanged by the tiling, so results are bit-identical to the untiled
/// kernel.
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);
void matmul_into(const Matrix& a, const Matrix& b, Matrix& out);

/// C = A * B^T. Requires A.cols() == B.cols(). The batch-scoring workhorse:
/// a tall-skinny activation matrix (batch x in) against a row-major weight
/// matrix stored (out x in) multiplies as contiguous row dot products with
/// no transposition or striding.
[[nodiscard]] Matrix matmul_transposed_b(const Matrix& a, const Matrix& b);
void matmul_transposed_b_into(const Matrix& a, const Matrix& b, Matrix& out);

/// C = A * B^T + 1 * bias^T (bias broadcast over rows), the fused
/// linear-layer forward. Each output element accumulates the row dot product
/// first and adds the bias last, matching the per-record matvec-then-add
/// order bit for bit. Requires bias.size() == B.rows().
void matmul_transposed_b_bias_into(const Matrix& a, const Matrix& b,
                                   std::span<const double> bias, Matrix& out);

/// Raw-pointer weight variant of the fused linear forward: `b` is a dense
/// row-major (b_rows x a.cols()) block that need not live in a Matrix —
/// the zero-copy path for weights mapped read-only from a model artifact
/// (data/serialize.h). Bit-identical to the Matrix overload.
void matmul_transposed_b_bias_into(const Matrix& a, const double* b,
                                   std::size_t b_rows,
                                   std::span<const double> bias, Matrix& out);

/// C = A * dequant(B) + bias through the active backend's dequantizing
/// GEMM entry (tensor/simd.h): the quantized-inference forward. `b` is
/// the k-major (depth x m) weight pack, i.e. the transposed weights (see
/// tensor/quant.h). Same bit-identity guarantees as the float GEMM —
/// within one quant mode, every backend and batch size yields
/// bit-identical rows. Requires b.mode() != QuantMode::Off and
/// a.cols() == b.rows().
void matmul_transposed_b_bias_quant_into(const Matrix& a,
                                         const QuantMatrix& b,
                                         std::span<const double> bias,
                                         Matrix& out);

/// y = A * x (GEMV). Requires A.cols() == x.size().
[[nodiscard]] Vector matvec(const Matrix& a, std::span<const double> x);

/// y = A^T * x. Requires A.rows() == x.size().
[[nodiscard]] Vector matvec_transposed(const Matrix& a,
                                       std::span<const double> x);

[[nodiscard]] Matrix transpose(const Matrix& a);

/// Elementwise matrix ops; shapes must match.
[[nodiscard]] Matrix add(const Matrix& a, const Matrix& b);
[[nodiscard]] Matrix subtract(const Matrix& a, const Matrix& b);
[[nodiscard]] Matrix hadamard(const Matrix& a, const Matrix& b);
[[nodiscard]] Matrix scale(const Matrix& a, double factor);
/// a += b * factor (axpy on matrices); shapes must match.
void add_scaled_inplace(Matrix& a, const Matrix& b, double factor);

/// Vector helpers.
[[nodiscard]] Vector add(std::span<const double> a, std::span<const double> b);
[[nodiscard]] Vector subtract(std::span<const double> a,
                              std::span<const double> b);
[[nodiscard]] Vector hadamard(std::span<const double> a,
                              std::span<const double> b);
[[nodiscard]] Vector scale(std::span<const double> a, double factor);
void add_scaled_inplace(Vector& a, std::span<const double> b, double factor);
[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);
[[nodiscard]] double l1_norm(std::span<const double> a);
[[nodiscard]] double l2_norm(std::span<const double> a);
[[nodiscard]] double sum(std::span<const double> a);

/// Outer product a * b^T as a Matrix of shape (a.size(), b.size()).
[[nodiscard]] Matrix outer(std::span<const double> a,
                           std::span<const double> b);

/// Numerically stable softmax.
[[nodiscard]] Vector softmax(std::span<const double> logits);
/// Softmax with temperature; t > 0 (t > 1 flattens, t < 1 sharpens).
[[nodiscard]] Vector softmax(std::span<const double> logits,
                             double temperature);
/// Softmax written into preallocated storage (batch hot path; `out` may not
/// alias `logits`). Bit-identical to the allocating overloads.
void softmax_into(std::span<const double> logits, std::span<double> out);
void softmax_into(std::span<const double> logits, double temperature,
                  std::span<double> out);
/// log(softmax(logits)) computed stably.
[[nodiscard]] Vector log_softmax(std::span<const double> logits);

/// One standard-normal draw per splitmix64 stream state, elementwise:
/// advances each states[i] by one step and writes the draw to out[i].
/// Bit-identical to common::CounterRng::normal() per stream, across
/// backends, and for any partitioning of the states (each lane is
/// independent). Batch hot path for the calibrated scoring kernel.
void normal_planar_into(std::span<std::uint64_t> states,
                        std::span<double> out);

/// Softmax over n records stored class-major: class c's logits occupy
/// planes[c * plane_stride .. + n); row i of the row-major output
/// (out + i * ldo, ldo >= classes) receives that record's probabilities.
/// Destroys the planes (they are scratch). Deterministic polynomial exp —
/// bit-stable across backends and libm versions, but deliberately not
/// bit-compatible with the row-wise softmax_into above.
void softmax_planar_into(std::span<double> planes, std::size_t plane_stride,
                         std::size_t classes, std::size_t n,
                         double* out, std::size_t ldo);

/// Index of the maximum element; first occurrence wins. Requires non-empty.
[[nodiscard]] std::size_t argmax(std::span<const double> values);

/// One-hot vector of length `size` with 1 at `index`.
[[nodiscard]] Vector one_hot(std::size_t index, std::size_t size);

}  // namespace muffin::tensor
