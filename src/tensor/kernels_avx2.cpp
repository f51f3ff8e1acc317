// AVX2 kernel backend (compiled with -mavx2 -mfma; see CMakeLists.txt).
//
// Vectorization strategy: lanes run across independent output COLUMNS,
// never across the k reduction. Lane j of an accumulator register holds
// out(i, j)'s running sum and performs exactly the scalar sequence —
// multiply, then add, k ascending, bias last — so every element is
// bit-identical to the scalar backend (vmulpd/vaddpd round lane-wise
// exactly like mulsd/addsd; no FMA contraction is used inside any
// reduction, deliberately, because the scalar reference rounds twice).
//
// When the toolchain cannot target AVX2 this TU compiles to the nullptr
// stub at the bottom and dispatch keeps everything on the scalar backend.
#include "tensor/simd.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "tensor/aligned.h"
#include "tensor/kernels_pack.h"
#include "tensor/kernels_planar.h"
#include "tensor/kernels_quant.h"

namespace muffin::tensor::detail {

namespace {

/// Columns per block of C: three 4-wide vectors, so a two-row tile is six
/// accumulators and fits the 16 ymm registers with its operands.
constexpr std::size_t kColBlock = 12;

/// One tile of R (1 or 2) rows x V vectors of a block of C, held in
/// registers across the whole k loop: loaded once, stored once, and k
/// still ascending. The a(i,k) == 0.0 skip is a blend — each lane keeps
/// its sum when the broadcast a(i,k) compares equal to zero — so it costs
/// no branch (after a ReLU about half of a gradient's entries are exact
/// zeros, and a branch on them mispredicts). The last vector moves
/// through maskload/maskstore, so lanes past the block's width are never
/// touched.
template <int R, int V>
inline void matmul_tile_avx2(const double* a, std::size_t lda,
                             const double* b, std::size_t ldb, double* c,
                             std::size_t ldo, std::size_t depth,
                             __m256i tail) {
  const __m256d zero = _mm256_setzero_pd();
  const auto load = [tail](const double* p, int v) {
    return v + 1 < V ? _mm256_loadu_pd(p) : _mm256_maskload_pd(p, tail);
  };
  __m256d acc[R][V];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) acc[r][v] = load(c + r * ldo + 4 * v, v);
  }
  for (std::size_t k = 0; k < depth; ++k) {
    const double* bk = b + k * ldb;
    __m256d vb[V];
    for (int v = 0; v < V; ++v) vb[v] = load(bk + 4 * v, v);
    for (int r = 0; r < R; ++r) {
      const __m256d va = _mm256_set1_pd(a[r * lda + k]);
      const __m256d nonzero = _mm256_cmp_pd(va, zero, _CMP_NEQ_UQ);
      for (int v = 0; v < V; ++v) {
        const __m256d sum =
            _mm256_add_pd(acc[r][v], _mm256_mul_pd(va, vb[v]));
        acc[r][v] = _mm256_blendv_pd(acc[r][v], sum, nonzero);
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      double* p = c + r * ldo + 4 * v;
      if (v + 1 < V) {
        _mm256_storeu_pd(p, acc[r][v]);
      } else {
        _mm256_maskstore_pd(p, tail, acc[r][v]);
      }
    }
  }
}

/// One column block, `width` columns in (4 (V - 1), 4 V], over all rows.
template <int V>
void matmul_block_avx2(const double* a, std::size_t lda, const double* b,
                       std::size_t ldb, double* out, std::size_t ldo,
                       std::size_t n, std::size_t depth, std::size_t width) {
  const auto lanes = static_cast<long long>(width - 4 * (V - 1));  // 1-4
  const __m256i tail = _mm256_cmpgt_epi64(_mm256_set1_epi64x(lanes),
                                          _mm256_setr_epi64x(0, 1, 2, 3));
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    matmul_tile_avx2<2, V>(a + i * lda, lda, b, ldb, out + i * ldo, ldo,
                           depth, tail);
  }
  if (i < n) {
    matmul_tile_avx2<1, V>(a + i * lda, lda, b, ldb, out + i * ldo, ldo,
                           depth, tail);
  }
}

/// C += A * B in blocks of kColBlock columns, each block run as register
/// tiles (above) — the per-element order of the scalar i-k-j kernel with
/// its a(i,k) == 0.0 skip.
void matmul_avx2(const double* a, std::size_t lda, const double* b,
                 std::size_t ldb, double* out, std::size_t ldo,
                 std::size_t n, std::size_t depth, std::size_t m) {
  for (std::size_t j0 = 0; j0 < m; j0 += kColBlock) {
    const std::size_t width = std::min(kColBlock, m - j0);
    switch ((width + 3) / 4) {
      case 1:
        matmul_block_avx2<1>(a, lda, b + j0, ldb, out + j0, ldo, n, depth,
                             width);
        break;
      case 2:
        matmul_block_avx2<2>(a, lda, b + j0, ldb, out + j0, ldo, n, depth,
                             width);
        break;
      default:
        matmul_block_avx2<3>(a, lda, b + j0, ldb, out + j0, ldo, n, depth,
                             width);
        break;
    }
  }
}

/// The j-tail shared by both row variants: four-wide vectors, then the
/// exact scalar loop for m % 4 columns.
inline void gemm_tb_row_tail(const double* ai, const double* bt,
                             const double* bias, double* ci, std::size_t m,
                             std::size_t depth, std::size_t j) {
  for (; j + 4 <= m; j += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t k = 0; k < depth; ++k) {
      const __m256d va = _mm256_set1_pd(ai[k]);
      const __m256d vb = _mm256_loadu_pd(bt + k * m + j);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(va, vb));
    }
    if (bias != nullptr) {
      acc = _mm256_add_pd(acc, _mm256_loadu_pd(bias + j));
    }
    _mm256_storeu_pd(ci + j, acc);
  }
  for (; j < m; ++j) {
    double acc = 0.0;
    for (std::size_t k = 0; k < depth; ++k) acc += ai[k] * bt[k * m + j];
    ci[j] = bias == nullptr ? acc : acc + bias[j];
  }
}

/// A * B^T (+ bias): B is packed transposed once per call (per thread —
/// the buffer is thread_local so GEMMs running concurrently on pool
/// workers do not share it), then a 2-row x 8-column register tile
/// accumulates with broadcast-A times contiguous-packed-B vectors. 2 x 8
/// doubles = 4 accumulator registers, k ascending, mul-then-add per lane,
/// bias last: the scalar reduction order, element for element.
void gemm_tb_avx2(const double* a, std::size_t lda, const double* b,
                  std::size_t ldb, const double* bias, double* out,
                  std::size_t ldo, std::size_t n, std::size_t m,
                  std::size_t depth) {
  // Packing costs O(m * depth) per call; the muffin shapes amortize it
  // over n >> 2 batch rows. Thread-local keeps the hot buffer allocated
  // across calls.
  thread_local AlignedBuffer bt_scratch;
  pack_b_transposed(b, ldb, m, depth, bt_scratch);
  const double* bt = bt_scratch.data();

  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const double* a0 = a + i * lda;
    const double* a1 = a + (i + 1) * lda;
    double* c0 = out + i * ldo;
    double* c1 = out + (i + 1) * ldo;
    std::size_t j = 0;
    for (; j + 8 <= m; j += 8) {
      __m256d acc00 = _mm256_setzero_pd();
      __m256d acc01 = _mm256_setzero_pd();
      __m256d acc10 = _mm256_setzero_pd();
      __m256d acc11 = _mm256_setzero_pd();
      const double* btk = bt + j;
      for (std::size_t k = 0; k < depth; ++k, btk += m) {
        const __m256d va0 = _mm256_set1_pd(a0[k]);
        const __m256d va1 = _mm256_set1_pd(a1[k]);
        const __m256d vb0 = _mm256_loadu_pd(btk);
        const __m256d vb1 = _mm256_loadu_pd(btk + 4);
        acc00 = _mm256_add_pd(acc00, _mm256_mul_pd(va0, vb0));
        acc01 = _mm256_add_pd(acc01, _mm256_mul_pd(va0, vb1));
        acc10 = _mm256_add_pd(acc10, _mm256_mul_pd(va1, vb0));
        acc11 = _mm256_add_pd(acc11, _mm256_mul_pd(va1, vb1));
      }
      if (bias != nullptr) {
        const __m256d vbias0 = _mm256_loadu_pd(bias + j);
        const __m256d vbias1 = _mm256_loadu_pd(bias + j + 4);
        acc00 = _mm256_add_pd(acc00, vbias0);
        acc01 = _mm256_add_pd(acc01, vbias1);
        acc10 = _mm256_add_pd(acc10, vbias0);
        acc11 = _mm256_add_pd(acc11, vbias1);
      }
      _mm256_storeu_pd(c0 + j, acc00);
      _mm256_storeu_pd(c0 + j + 4, acc01);
      _mm256_storeu_pd(c1 + j, acc10);
      _mm256_storeu_pd(c1 + j + 4, acc11);
    }
    gemm_tb_row_tail(a0, bt, bias, c0, m, depth, j);
    gemm_tb_row_tail(a1, bt, bias, c1, m, depth, j);
  }
  if (i < n) {
    const double* ai = a + i * lda;
    double* ci = out + i * ldo;
    std::size_t j = 0;
    for (; j + 8 <= m; j += 8) {
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      const double* btk = bt + j;
      for (std::size_t k = 0; k < depth; ++k, btk += m) {
        const __m256d va = _mm256_set1_pd(ai[k]);
        acc0 = _mm256_add_pd(acc0,
                             _mm256_mul_pd(va, _mm256_loadu_pd(btk)));
        acc1 = _mm256_add_pd(acc1,
                             _mm256_mul_pd(va, _mm256_loadu_pd(btk + 4)));
      }
      if (bias != nullptr) {
        acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(bias + j));
        acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(bias + j + 4));
      }
      _mm256_storeu_pd(ci + j, acc0);
      _mm256_storeu_pd(ci + j + 4, acc1);
    }
    gemm_tb_row_tail(ai, bt, bias, ci, m, depth, j);
  }
}

/// Softmax keeps the max scan, the std::exp calls and the ascending total
/// accumulation scalar (all three are bit-carrying reductions or libm
/// calls); only the element-wise normalization divide vectorizes, and
/// vdivpd rounds lane-wise exactly like divsd.
void softmax_avx2(const double* logits, std::size_t n, double temperature,
                  double* out) {
  const double maxv = *std::max_element(logits, logits + n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = std::exp((logits[i] - maxv) / temperature);
    total += out[i];
  }
  const __m256d vtotal = _mm256_set1_pd(total);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i,
                     _mm256_div_pd(_mm256_loadu_pd(out + i), vtotal));
  }
  for (; i < n; ++i) out[i] /= total;
}

}  // namespace

const KernelTable* avx2_kernels() {
  // normal_planar/softmax_planar/gemm_tb_bf16/gemm_tb_i8 are this TU's
  // -mavx2 compilation of the shared generic bodies (kernels_planar.h,
  // kernels_quant.h).
  static constexpr KernelTable table{
      matmul_avx2,            gemm_tb_avx2,       softmax_avx2,
      normal_planar_generic,  softmax_planar_generic,
      gemm_tb_bf16_generic,   gemm_tb_i8_generic, "avx2"};
  return &table;
}

}  // namespace muffin::tensor::detail

#else  // !(__AVX2__ && __FMA__)

namespace muffin::tensor::detail {

const KernelTable* avx2_kernels() { return nullptr; }

}  // namespace muffin::tensor::detail

#endif
