// Runtime-dispatched SIMD kernel backends for the tensor hot loops.
//
// The public tensor API (ops.h) is unchanged; its four hot kernels —
// matmul_into, matmul_transposed_b_into, matmul_transposed_b_bias_into
// and softmax_into — route through the kernel table returned by
// detail::active_kernels(). Two backends exist:
//
//   scalar  The portable register-tiled kernels (the PR 3 code paths),
//           always compiled, always the reference.
//   avx2    256-bit vector kernels, compiled only when the toolchain
//           accepts -mavx2 -mfma (kernels_avx2.cpp) and selected only
//           when CPUID reports AVX2+FMA at runtime.
//   avx512  512-bit vector kernels (kernels_avx512.cpp, -mavx512f),
//           selected when CPUID reports AVX512F. Same column-lane
//           strategy, twice the width: on no-FMA kernels the mul+add
//           ALU throughput is the ceiling, and 8 lanes double it again
//           over avx2 — which is what clears the >= 3x serving-shape
//           floor against the (SSE-paired-by-the-compiler) scalar
//           baseline on one core.
//
// Bit-identity contract: every backend produces bit-identical output to
// the scalar backend on every input. The AVX2 kernels achieve this by
// vectorizing across independent output columns — each vector lane owns
// one output element, so each element still accumulates its k-terms in
// ascending order through the same mul-then-add rounding sequence as the
// scalar code (no FMA contraction inside a reduction; IEEE-754 makes
// vmulpd/vaddpd lanes identical to mulsd/addsd). The FMA CPUID bit is
// still required so dispatch has one modern-x86 feature gate, but the
// kernels deliberately do not fuse.
//
// Selection order (resolved once, on first use):
//   1. MUFFIN_SIMD environment variable: "off"/"scalar"/"0" forces the
//      scalar backend; "avx2" and "avx512" force one vector backend;
//      "on"/"1" requests the best vector backend (each falls back a
//      tier with a log warning when unsupported); unset/"auto" picks
//      the best supported backend.
//   2. CPUID: the features must be reported (AVX2+FMA, or AVX512F) and
//      the backend TU must have been compiled in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace muffin::tensor {

enum class SimdBackend {
  Scalar,
  Avx2,
  Avx512,
};

/// The backend the dispatcher resolved for this process (env + CPUID).
[[nodiscard]] SimdBackend active_simd_backend();

/// Name of the active backend: "scalar", "avx2" or "avx512".
[[nodiscard]] std::string_view simd_backend_name();

/// True when at least one vector backend is compiled in and reported by
/// CPUID — i.e. auto dispatch would not pick scalar.
[[nodiscard]] bool simd_available();

namespace detail {

/// C += A * B (row-major, explicit leading dimensions): C starts zeroed
/// for a plain product, or holds the sums to continue, such as a weight
/// gradient accumulating over minibatch rows. Every backend keeps the
/// scalar kernel's semantics exactly: each out(i, j) adds a(i,k) * b(k,j)
/// for k ascending, multiply then add, and skips a(i,k) == 0.0 (which
/// matters bit-wise when B holds non-finite values or C holds -0.0).
/// The scalar kernel sweeps i-k-j. The vector ones hold a tile of C in
/// registers across the whole k loop, one block of columns at a time,
/// with the skip done as a masked add or blend rather than a branch.
using MatmulFn = void (*)(const double* a, std::size_t lda, const double* b,
                          std::size_t ldb, double* out, std::size_t ldo,
                          std::size_t n, std::size_t depth, std::size_t m);

/// C = A * B^T (+ bias, when bias != nullptr), overwriting C. Each
/// out(i, j) accumulates its k-terms in ascending order and adds bias[j]
/// last, exactly like the scalar 2x4-tiled kernel.
using GemmTbFn = void (*)(const double* a, std::size_t lda, const double* b,
                          std::size_t ldb, const double* bias, double* out,
                          std::size_t ldo, std::size_t n, std::size_t m,
                          std::size_t depth);

/// Numerically-stable softmax with temperature into `out` (size n > 0,
/// no aliasing). The max scan, std::exp calls and the ascending
/// total-accumulation stay scalar in every backend (vectorizing any of
/// them would change bits); backends may vectorize the element-wise
/// normalization divide, which rounds identically lane-wise.
using SoftmaxFn = void (*)(const double* logits, std::size_t n,
                           double temperature, double* out);

/// One standard-normal draw per stream state, elementwise: advances each
/// states[i] by one splitmix64 step and writes the inverse-normal-CDF of
/// the unit uniform — bit-identical to CounterRng::normal() per stream
/// and across backends (the bodies are elementwise column sweeps shared
/// via kernels_planar.h, compiled per-TU under each backend's ISA flags).
using NormalPlanarFn = void (*)(std::uint64_t* states, double* out,
                                std::size_t n);

/// Softmax over n records stored class-major (record-per-lane): class c's
/// logits occupy planes[c * plane_stride .. + n); row-major probabilities
/// land at out + i * ldo. Overwrites the planes with the exponentials
/// (scratch semantics). Uses the deterministic polynomial exp from
/// kernels_planar.h, NOT std::exp — so it is bit-stable across libm
/// versions but deliberately not bit-compatible with SoftmaxFn.
using SoftmaxPlanarFn = void (*)(double* planes, std::size_t plane_stride,
                                 std::size_t classes, std::size_t n,
                                 double* out, std::size_t ldo);

/// C = A * widen(Bq)^T + bias for a k-major bf16 weight pack (element
/// (j, k) of the logical (m x depth) weight matrix at bq[k * ldb + j];
/// see tensor/quant.h). Ascending-k mul-then-add per output element,
/// bias last — bit-identical across backends and to the single-row call
/// (the bodies are shared column sweeps compiled per-TU, like the planar
/// kernels). `bias` may be null.
using GemmTbBf16Fn = void (*)(const double* a, std::size_t lda,
                              const std::uint16_t* bq, std::size_t ldb,
                              const double* bias, double* out,
                              std::size_t ldo, std::size_t n, std::size_t m,
                              std::size_t depth);

/// C = (A * (double)Bq^T) * scale + bias for a k-major int8 weight pack
/// with per-output-column scales: the integer accumulation dequantizes
/// exactly, and the scale applies once per output element (mul then add,
/// never fused). Same bit-identity contract as GemmTbBf16Fn.
using GemmTbI8Fn = void (*)(const double* a, std::size_t lda,
                            const std::int8_t* bq, std::size_t ldb,
                            const double* scales, const double* bias,
                            double* out, std::size_t ldo, std::size_t n,
                            std::size_t m, std::size_t depth);

struct KernelTable {
  MatmulFn matmul;
  GemmTbFn gemm_tb;
  SoftmaxFn softmax;
  NormalPlanarFn normal_planar;
  SoftmaxPlanarFn softmax_planar;
  GemmTbBf16Fn gemm_tb_bf16;
  GemmTbI8Fn gemm_tb_i8;
  const char* name;
};

/// The always-available portable backend (reference for bit-identity).
[[nodiscard]] const KernelTable& scalar_kernels();

/// The AVX2 / AVX-512 backends, or nullptr when the TU was compiled
/// without the needed ISA support. Callers must still check CPUID
/// (cpu_supports_*) before executing one; the tests call them directly on
/// capable hardware to pin bit-identity against scalar_kernels() in one
/// process.
[[nodiscard]] const KernelTable* avx2_kernels();
[[nodiscard]] const KernelTable* avx512_kernels();

/// The dispatched table every ops.h kernel wrapper uses.
[[nodiscard]] const KernelTable& active_kernels();

/// Pure resolution rule (unit-tested without mutating process env): `env`
/// is the MUFFIN_SIMD value (empty/"auto" when unset); the *_usable flags
/// mean "compiled in and CPUID-supported". Returns the backend to use.
[[nodiscard]] SimdBackend resolve_backend(std::string_view env,
                                          bool avx2_usable,
                                          bool avx512_usable);

/// CPUID checks (independent of what was compiled).
[[nodiscard]] bool cpu_supports_avx2_fma();
[[nodiscard]] bool cpu_supports_avx512f();

}  // namespace detail

}  // namespace muffin::tensor
