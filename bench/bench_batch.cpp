// bench_batch — the batch-first scoring path vs the per-record reference.
//
// Three sections, each asserting bit-identity before timing anything:
//
//   kernels   GEMM micro-benchmark on muffin-head-sized shapes: the tiled
//             matmul_into and the transposed-B kernels against a local
//             naive i-k-j reference (guards the scalar fallback against
//             regression), plus the SIMD backend section — scalar vs
//             runtime-dispatched SIMD vs the public entry point on
//             serving shapes, in GFLOP/s, gated at >= 3x (full mode, AVX2
//             hosts) on matmul_transposed_b_bias_into.
//   head      nn::Mlp forward: per-record forward_inference loop vs one
//             forward_batch_inference GEMM, across batch sizes.
//   memory    the memory-lean shard budget: ScoreCache footprint and
//             serve-memo bytes/record under MUFFIN_QUANT off/bf16/int8
//             (int8 gated at >= 3x smaller than float), the quantized
//             accuracy gates (argmax parity >= 0.99, fairness deltas
//             <= 0.02 vs the float path on a trained body), and MUFA
//             artifact cold-start: heap load_file vs zero-copy map_file
//             on a ~1.2M-parameter body (mmap gated >= 10x faster in
//             full mode).
//   fused     FusedModel::score_batch (batched bodies + row-wise consensus
//             gate + sub-batch head GEMM) against the per-record
//             FusedModel::scores loop, for two body substrates:
//               * trainable bodies (genuinely trained MLP classifiers) —
//                 the acceptance metric, floor >= 2x at batch 32. Network
//                 bodies are where batch-first turns matvec into GEMM, the
//                 regime a real CNN-backed deployment lives in.
//               * calibrated bodies (the paper's simulation pool) —
//                 gated twice: an in-run speedup floor (what batching
//                 buys over the per-record loop; both paths share the
//                 planar kernel, so this measures only the batch
//                 amortization) and an absolute rows/s floor set at 10x
//                 the PR-6 committed baseline (36.5k rows/s at batch 32),
//                 the tentpole throughput target.
//
// Writes BENCH_batch.json (throughput, p50/p99, speedups, kernel GFLOP/s)
// for cross-PR tracking — to the current directory by default, or to the
// path given with `--out` (CI runs from the repo root so the trajectory
// lands next to the sources). `--smoke` shrinks the workload and relaxes
// the perf floors so CI catches rot without flaking on loaded runners;
// bit-identity is asserted in every mode.
//
// Env knobs (bench_util.h): MUFFIN_SAMPLES, MUFFIN_SEED; MUFFIN_SIMD and
// MUFFIN_THREADS select the kernel backend and pool width under test.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "common/parallel_for.h"
#include "core/head_trainer.h"
#include "core/proxy.h"
#include "core/score_cache.h"
#include "data/serialize.h"
#include "fairness/metrics.h"
#include "models/trainable.h"
#include "serve/engine.h"
#include "tensor/ops.h"
#include "tensor/quant.h"
#include "tensor/simd.h"

using namespace muffin;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The untiled i-k-j kernel the tiled matmul_into must never regress from.
void naive_matmul_into(const tensor::Matrix& a, const tensor::Matrix& b,
                       tensor::Matrix& out) {
  out.resize(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        out(i, j) += aik * b(k, j);
      }
    }
  }
}

tensor::Matrix random_matrix(std::size_t rows, std::size_t cols,
                             std::uint64_t seed) {
  SplitRng rng(seed);
  tensor::Matrix m(rows, cols);
  for (double& v : m.flat()) v = rng.normal(0.0, 1.0);
  return m;
}

template <typename F>
double time_best_of(std::size_t reps, F&& body) {
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    body();
    best = std::min(best, seconds_since(start));
  }
  return best;
}

bool bitwise_equal(const tensor::Matrix& a, const tensor::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const auto fa = a.flat();
  const auto fb = b.flat();
  return std::memcmp(fa.data(), fb.data(), fa.size() * sizeof(double)) == 0;
}

std::shared_ptr<core::FusedModel> build_fused(const models::ModelPool& pool,
                                              std::vector<std::size_t> indices,
                                              const data::Dataset& train,
                                              std::size_t num_classes,
                                              const std::string& name) {
  rl::StructureChoice choice;
  choice.model_indices = std::move(indices);
  choice.hidden_dims = {18, 12};
  choice.activation = nn::Activation::Relu;
  const core::FusingStructure structure =
      core::FusingStructure::from_choice(choice, num_classes);
  const core::ScoreCache cache(pool, train);
  const core::ProxyDataset proxy = core::build_proxy(train);
  core::HeadTrainConfig config;
  config.epochs = 10;
  nn::Mlp head = core::train_head(cache, train, proxy, structure, config);
  std::vector<models::ModelPtr> body;
  for (const std::size_t m : structure.model_indices) {
    body.push_back(pool.share(m));
  }
  return std::make_shared<core::FusedModel>(name, std::move(body),
                                            std::move(head));
}

/// The trainable substrate: two genuinely trained MLP classifiers as the
/// frozen body (different seeds, so they disagree somewhere).
models::ModelPool trainable_pool(const data::Dataset& train, bool smoke) {
  models::ModelPool pool;
  for (const std::uint64_t seed : {std::uint64_t{7}, std::uint64_t{11}}) {
    models::TrainableConfig config;
    config.seed = seed;
    config.epochs = smoke ? 4 : 10;
    auto model = std::make_shared<models::TrainableClassifier>(
        "mlp-" + std::to_string(seed), train, config);
    model->fit(train);
    pool.add(std::move(model));
  }
  return pool;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_batch.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  bench::print_header(
      "Batch-first scoring: Matrix-in/Matrix-out vs per-record",
      smoke ? "smoke mode: trimmed workload, relaxed perf floor (1.3x)."
            : "full mode: acceptance floor 2.0x at batch >= 32.");

  bench::BenchJson json;
  json.add_string("mode", smoke ? "smoke" : "full");
  bool pass = true;

  // --- kernels ----------------------------------------------------------
  // Head-sized shapes: tall-skinny batch x small weight matrices.
  const std::size_t reps = smoke ? 5 : 20;
  TextTable kernel_table(
      {"kernel (1024x16 * 16x18)", "best us", "vs naive"});
  {
    const tensor::Matrix a = random_matrix(1024, 16, 11);
    const tensor::Matrix b = random_matrix(16, 18, 13);
    const tensor::Matrix bt = tensor::transpose(b);  // (18, 16) row-major
    tensor::Matrix out_naive, out_tiled, out_transposed;

    const double t_naive = time_best_of(
        reps, [&]() { naive_matmul_into(a, b, out_naive); });
    const double t_tiled =
        time_best_of(reps, [&]() { tensor::matmul_into(a, b, out_tiled); });
    const double t_transposed = time_best_of(reps, [&]() {
      tensor::matmul_transposed_b_into(a, bt, out_transposed);
    });

    if (!bitwise_equal(out_naive, out_tiled)) {
      std::cout << "FAIL: tiled matmul_into differs from the naive kernel\n";
      pass = false;
    }
    // The transposed kernel reorders the k-accumulation relative to i-k-j
    // (dot product per element), so compare within a loose numeric bound.
    for (std::size_t i = 0; i < out_naive.rows() && pass; ++i) {
      for (std::size_t j = 0; j < out_naive.cols(); ++j) {
        if (std::abs(out_naive(i, j) - out_transposed(i, j)) > 1e-9) {
          std::cout << "FAIL: matmul_transposed_b diverges numerically\n";
          pass = false;
          break;
        }
      }
    }

    kernel_table.add_row({"naive i-k-j", format_fixed(t_naive * 1e6, 1),
                          "1.00x"});
    kernel_table.add_row({"matmul_into (tiled)",
                          format_fixed(t_tiled * 1e6, 1),
                          format_fixed(t_naive / t_tiled, 2) + "x"});
    kernel_table.add_row({"matmul_transposed_b",
                          format_fixed(t_transposed * 1e6, 1),
                          format_fixed(t_naive / t_transposed, 2) + "x"});
    kernel_table.print(std::cout);
    std::cout << "\n";

    json.add("kernels.naive_us", t_naive * 1e6);
    json.add("kernels.tiled_us", t_tiled * 1e6);
    json.add("kernels.transposed_b_us", t_transposed * 1e6);
    const double kernel_ratio = t_tiled / t_naive;
    json.add("kernels.tiled_vs_naive", t_naive / t_tiled);
    // No-regression guard, with generous noise slack on small shapes.
    if (!smoke && kernel_ratio > 1.35) {
      std::cout << "FAIL: tiled kernel regressed " << format_fixed(kernel_ratio, 2)
                << "x vs naive on head-sized shapes\n";
      pass = false;
    }
  }

  // --- SIMD kernel backends at serving shapes ---------------------------
  // The batch-first serving hot loop is matmul_transposed_b_bias_into on
  // tall-skinny activations. Three configurations per shape, all asserted
  // bit-identical first:
  //   scalar        the portable 2x4-tile kernel, serial (the PR 3 path)
  //   simd          the runtime-dispatched backend, serial
  //   simd+threads  the public entry point, called from this thread with
  //                 the pool at its configured width: the dispatched
  //                 backend, one serial call over all rows (GEMMs do not
  //                 split rows over the pool), so it reads as simd
  // Acceptance (full mode, SIMD-capable hosts): simd+threads >= 3x scalar
  // at the batch >= 64 serving shapes with full vector-lane occupancy
  // (m % 8 == 0 — wide heads / many-body structures). The 18-wide
  // 2-body head layer fills only 18 of 24 lanes (75%), and since the
  // bit-identity contract forbids FMA inside reductions the FP-ALU
  // ceiling bounds that shape below 3x on a single core — it is floored
  // at 2.5x. Scalar-only hosts report and skip the gates.
  {
    struct GemmShape {
      std::size_t n, depth, m;
      const char* label;
      bool full_lanes;
    };
    const GemmShape shapes[] = {
        {64, 16, 18, "b64_head", false},    // smallest acceptance batch
        {256, 16, 18, "b256_head", false},  // steady-state micro-batch
        {64, 64, 64, "b64_wide", true},     // 8-body structure, batch 64
        {256, 64, 64, "b256_wide", true},   // 8-body structure, batch 256
    };
    // Floors apply only when a vector backend is actually dispatched:
    // MUFFIN_SIMD=off/scalar is a legitimate way to measure the scalar
    // baseline and must not fail the gate against itself.
    const bool simd =
        tensor::active_simd_backend() != tensor::SimdBackend::Scalar;
    json.add_string("kernels.simd_backend",
                    std::string(tensor::simd_backend_name()));
    json.add("kernels.simd_available", tensor::simd_available());
    json.add("kernels.simd_gated", simd);
    const std::size_t pool_threads = muffin::common::global_pool_size();
    json.add("kernels.pool_threads", pool_threads);
    // Record the requested width next to the effective one so a committed
    // BENCH json is self-describing: the PR-6 baseline was silently
    // measured on a one-thread pool and its "batching buys nothing"
    // numbers were degenerate. Unset MUFFIN_THREADS records as "auto".
    const char* threads_env = std::getenv("MUFFIN_THREADS");
    json.add_string("kernels.muffin_threads",
                    threads_env != nullptr ? threads_env : "auto");
    json.add("kernels.pool_degenerate", pool_threads == 1);
    if (!smoke && pool_threads == 1) {
      std::cout << "WARNING: worker pool has a single thread ("
                << (threads_env != nullptr
                        ? std::string("MUFFIN_THREADS=") + threads_env
                        : std::string("single-core host"))
                << "); the calibrated-body score_batch b=256 rows, the "
                   "only timed rows that split over the pool, measure "
                   "the serial path.\n\n";
    }
    TextTable simd_table({"A*B^T+bias shape", "scalar GF/s", "simd GF/s",
                          "simd+threads GF/s", "speedup"});
    const tensor::detail::KernelTable& scalar_table =
        tensor::detail::scalar_kernels();
    const tensor::detail::KernelTable& active_table =
        tensor::detail::active_kernels();
    const std::size_t inner_iters = smoke ? 40 : 200;
    for (const GemmShape& shape : shapes) {
      const tensor::Matrix a = random_matrix(shape.n, shape.depth, 211);
      const tensor::Matrix w = random_matrix(shape.m, shape.depth, 223);
      tensor::Vector bias(shape.m);
      {
        SplitRng rng(227);
        for (double& v : bias) v = rng.normal(0.0, 1.0);
      }
      const double flops =
          2.0 * static_cast<double>(shape.n * shape.depth * shape.m);

      tensor::Matrix out_scalar(shape.n, shape.m);
      tensor::Matrix out_simd(shape.n, shape.m);
      tensor::Matrix out_threads;
      const auto run_scalar = [&]() {
        scalar_table.gemm_tb(a.flat().data(), a.stride(), w.flat().data(),
                             w.stride(), bias.data(),
                             out_scalar.flat().data(), out_scalar.stride(),
                             shape.n, shape.m, shape.depth);
      };
      const auto run_simd = [&]() {
        active_table.gemm_tb(a.flat().data(), a.stride(), w.flat().data(),
                             w.stride(), bias.data(), out_simd.flat().data(),
                             out_simd.stride(), shape.n, shape.m,
                             shape.depth);
      };
      const auto run_threads = [&]() {
        tensor::matmul_transposed_b_bias_into(a, w, bias, out_threads);
      };

      run_scalar();
      run_simd();
      run_threads();
      if (!bitwise_equal(out_scalar, out_simd) ||
          !bitwise_equal(out_scalar, out_threads)) {
        std::cout << "FAIL: kernel backends diverge bitwise at "
                  << shape.label << "\n";
        pass = false;
      }

      // Interleaved best-of timing: each round measures all three
      // configurations back to back, so frequency drift and noisy-
      // neighbour stalls on shared hosts hit every configuration alike
      // instead of biasing the ratio.
      const auto time_once = [&](const auto& body) {
        const Clock::time_point start = Clock::now();
        for (std::size_t it = 0; it < inner_iters; ++it) body();
        return seconds_since(start) / static_cast<double>(inner_iters);
      };
      const std::size_t rounds = smoke ? 12 : 40;
      double t_scalar = 1e300, t_simd = 1e300, t_threads = 1e300;
      for (std::size_t round = 0; round < rounds; ++round) {
        t_scalar = std::min(t_scalar, time_once(run_scalar));
        t_simd = std::min(t_simd, time_once(run_simd));
        t_threads = std::min(t_threads, time_once(run_threads));
      }
      const double speedup = t_scalar / t_threads;

      const double simd_floor =
          smoke ? 1.4 : (shape.full_lanes ? 3.0 : 2.5);
      simd_table.add_row({shape.label,
                          format_fixed(flops / t_scalar / 1e9, 2),
                          format_fixed(flops / t_simd / 1e9, 2),
                          format_fixed(flops / t_threads / 1e9, 2),
                          format_fixed(speedup, 2) + "x"});
      const std::string key = std::string("kernels.gemm_bias.") + shape.label;
      json.add(key + ".scalar_gflops", flops / t_scalar / 1e9);
      json.add(key + ".simd_gflops", flops / t_simd / 1e9);
      json.add(key + ".simd_threads_gflops", flops / t_threads / 1e9);
      json.add(key + ".speedup_vs_scalar", speedup);
      json.add(key + ".floor", simd_floor);

      if (simd && speedup < simd_floor) {
        std::cout << "FAIL: simd+threads " << format_fixed(speedup, 2)
                  << "x below the " << format_fixed(simd_floor, 2)
                  << "x floor at " << shape.label << "\n";
        pass = false;
      }
    }
    simd_table.print(std::cout);
    std::cout << (simd ? "full-lane serving shapes gate at >= 3x; the "
                         "18-wide head shapes occupy 75% of the vector "
                         "lanes and gate at >= 2.5x; GEMMs run serially, "
                         "so simd+threads reads as simd\n"
                       : "scalar backend active: speedup floors skipped\n")
              << "\n";
  }

  // --- head forward -----------------------------------------------------
  nn::MlpSpec head_spec;
  head_spec.input_dim = 16;
  head_spec.hidden_dims = {18, 12};
  head_spec.output_dim = 8;
  nn::Mlp head(head_spec);
  SplitRng head_rng(7);
  head.init(head_rng);

  TextTable head_table({"head forward", "rows/s", "speedup"});
  for (const std::size_t batch : {std::size_t{32}, std::size_t{256}}) {
    const std::size_t rows = smoke ? 2048 : 16384;
    const tensor::Matrix inputs = random_matrix(rows, 16, 17 + batch);

    tensor::Matrix per_record_out(rows, 8);
    const double t_record = time_best_of(reps, [&]() {
      for (std::size_t r = 0; r < rows; ++r) {
        const tensor::Vector out = head.forward_inference(inputs.row(r));
        std::copy(out.begin(), out.end(), per_record_out.row(r).begin());
      }
    });
    tensor::Matrix batched_out(rows, 8);
    const double t_batch = time_best_of(reps, [&]() {
      for (std::size_t r0 = 0; r0 < rows; r0 += batch) {
        const std::size_t r1 = std::min(r0 + batch, rows);
        tensor::Matrix chunk(r1 - r0, 16);
        for (std::size_t r = r0; r < r1; ++r) {
          const auto src = inputs.row(r);
          std::copy(src.begin(), src.end(), chunk.row(r - r0).begin());
        }
        const tensor::Matrix out = head.forward_batch_inference(chunk);
        for (std::size_t r = r0; r < r1; ++r) {
          const auto src = out.row(r - r0);
          std::copy(src.begin(), src.end(), batched_out.row(r).begin());
        }
      }
    });
    if (!bitwise_equal(per_record_out, batched_out)) {
      std::cout << "FAIL: batched head forward is not bit-identical\n";
      pass = false;
    }
    const double speedup = t_record / t_batch;
    head_table.add_row(
        {"batch " + std::to_string(batch),
         std::to_string(static_cast<long long>(rows / t_batch)),
         format_fixed(speedup, 2) + "x"});
    json.add("head.batch_" + std::to_string(batch) + ".rows_per_s",
             static_cast<double>(rows) / t_batch);
    json.add("head.batch_" + std::to_string(batch) + ".speedup", speedup);
  }
  head_table.print(std::cout);
  std::cout << "\n";

  // --- fused batch scoring ---------------------------------------------
  const bench::IsicScenario scenario(
      bench::env_size("MUFFIN_SAMPLES", smoke ? 1500 : 6000));
  const auto quantile = [](const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const std::size_t idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
  };

  // Measures one fused model: per-record loop vs score_batch chunks.
  // Returns {speedup, rows/s} at batch 32; asserts bit-identity into
  // `pass`.
  struct FusedResult {
    double speedup32 = 0.0;
    double rps32 = 0.0;
  };
  const auto measure_fused = [&](const core::FusedModel& fused,
                                 const std::string& label,
                                 const std::string& json_prefix) {
    const std::vector<data::Record>& records = scenario.test.records();
    const std::size_t n = records.size();
    // Both sides are timed best-of-N: on a loaded host the noise is
    // additive slowdown, so the fastest pass is the least-contaminated
    // estimate and the speedup ratio stops flapping between runs.
    const std::size_t passes = smoke ? 2 : 3;

    std::vector<double> record_latencies_us;
    tensor::Matrix reference(n, fused.num_classes());
    double t_reference = 0.0;
    for (std::size_t rep = 0; rep < passes; ++rep) {
      std::vector<double> latencies_us;
      latencies_us.reserve(n);
      const Clock::time_point ref_start = Clock::now();
      for (std::size_t i = 0; i < n; ++i) {
        const Clock::time_point s = Clock::now();
        const tensor::Vector scores = fused.scores(records[i]);
        std::copy(scores.begin(), scores.end(), reference.row(i).begin());
        latencies_us.push_back(seconds_since(s) * 1e6);
      }
      const double t = seconds_since(ref_start);
      if (rep == 0 || t < t_reference) {
        t_reference = t;
        record_latencies_us = std::move(latencies_us);
      }
    }
    const double rps_reference = static_cast<double>(n) / t_reference;
    std::sort(record_latencies_us.begin(), record_latencies_us.end());

    TextTable fused_table({"fused scoring: " + label, "req/s", "speedup",
                           "p50us/req", "p99us/req"});
    fused_table.add_row(
        {"per-record loop",
         std::to_string(static_cast<long long>(rps_reference)), "1.00x",
         format_fixed(quantile(record_latencies_us, 0.5), 1),
         format_fixed(quantile(record_latencies_us, 0.99), 1)});
    json.add(json_prefix + ".records", n);
    json.add(json_prefix + ".per_record.rps", rps_reference);
    json.add(json_prefix + ".per_record.p50_us",
             quantile(record_latencies_us, 0.5));
    json.add(json_prefix + ".per_record.p99_us",
             quantile(record_latencies_us, 0.99));

    FusedResult result;
    for (const std::size_t batch : {std::size_t{32}, std::size_t{256}}) {
      tensor::Matrix batched(n, fused.num_classes());
      std::vector<double> batch_latencies_us;
      double t_batched = 0.0;
      for (std::size_t rep = 0; rep < passes; ++rep) {
        std::vector<double> latencies_us;
        latencies_us.reserve((n + batch - 1) / batch);
        const Clock::time_point start = Clock::now();
        for (std::size_t i0 = 0; i0 < n; i0 += batch) {
          const std::size_t i1 = std::min(i0 + batch, n);
          const Clock::time_point s = Clock::now();
          const tensor::Matrix out = fused.score_batch(
              std::span<const data::Record>(records).subspan(i0, i1 - i0));
          const double chunk_us = seconds_since(s) * 1e6;
          latencies_us.push_back(chunk_us /
                                 static_cast<double>(i1 - i0));
          for (std::size_t i = i0; i < i1; ++i) {
            const auto src = out.row(i - i0);
            std::copy(src.begin(), src.end(), batched.row(i).begin());
          }
        }
        const double t = seconds_since(start);
        if (rep == 0 || t < t_batched) {
          t_batched = t;
          batch_latencies_us = std::move(latencies_us);
        }
      }
      const double rps = static_cast<double>(n) / t_batched;
      const double speedup = rps / rps_reference;
      if (batch == 32) result = {speedup, rps};

      if (!bitwise_equal(reference, batched)) {
        std::cout << "FAIL: " << label
                  << " score_batch is not bit-identical at batch " << batch
                  << "\n";
        pass = false;
      }
      std::sort(batch_latencies_us.begin(), batch_latencies_us.end());
      fused_table.add_row(
          {"score_batch b=" + std::to_string(batch),
           std::to_string(static_cast<long long>(rps)),
           format_fixed(speedup, 2) + "x",
           format_fixed(quantile(batch_latencies_us, 0.5), 1),
           format_fixed(quantile(batch_latencies_us, 0.99), 1)});
      const std::string key = json_prefix + ".batch_" + std::to_string(batch);
      json.add(key + ".rps", rps);
      json.add(key + ".speedup", speedup);
      json.add(key + ".p50_us_per_req", quantile(batch_latencies_us, 0.5));
      json.add(key + ".p99_us_per_req", quantile(batch_latencies_us, 0.99));
    }
    fused_table.print(std::cout);
    std::cout << "\n";
    return result;
  };

  // Acceptance subject: fused model over trained MLP bodies (network
  // bodies are the batch-first regime — matvec loops become GEMM).
  const models::ModelPool mlp_pool = trainable_pool(scenario.train, smoke);
  const auto fused_trainable =
      build_fused(mlp_pool, {0, 1}, scenario.train,
                  scenario.full.num_classes(), "Muffin-mlp");
  const double trainable_speedup32 =
      measure_fused(*fused_trainable, "trainable bodies", "fused_trainable")
          .speedup32;

  // The calibrated simulation pool (the paper's model bodies). The planar
  // batch kernel carries two gates:
  //  * an in-run speedup floor — what batching buys over the per-record
  //    loop. Both paths now share the same kernel (scores() is a
  //    single-row score_batch), so this ratio measures only the batch
  //    amortization (allocation reuse, planar sweeps, whole-batch
  //    softmax) on top of an already-fast per-record path — the bodies'
  //    amortization ceiling is ~2.5x, nothing like the old 28 us/record
  //    per-record baseline.
  //  * an absolute throughput floor carrying the 10x tentpole target:
  //    the PR-6 committed BENCH_batch.json recorded 36.5k rows/s at
  //    batch 32 (p50 28 us/record, batching buying 1.05x); the batch
  //    kernel must clear 10x that wall in full mode.
  const auto fused_calibrated = build_fused(
      scenario.pool,
      {scenario.pool.index_of("ShuffleNet_V2_X1_0"),
       scenario.pool.index_of("DenseNet121")},
      scenario.train, scenario.full.num_classes(), "Muffin");
  const FusedResult calibrated_result = measure_fused(
      *fused_calibrated, "calibrated bodies", "fused_calibrated");
  const double calibrated_speedup32 = calibrated_result.speedup32;
  const double calibrated_rps32 = calibrated_result.rps32;

  // --- memory: quantized shards + mmap'd artifacts ----------------------
  // Three measurements, each carrying an ISSUE gate:
  //   * score-state footprint (ScoreCache planes + serve memo) per
  //     MUFFIN_QUANT mode — int8 must hold >= 3x less than float;
  //   * accuracy under quantization on a trained body — argmax parity
  //     >= 0.99 and fairness-metric drift <= 0.02 vs the float path;
  //   * MUFA artifact cold-start (open + construct + first score) —
  //     zero-copy map_file must beat heap load_file >= 10x (full mode).
  {
    const tensor::QuantMode kModes[] = {tensor::QuantMode::Off,
                                        tensor::QuantMode::Bf16,
                                        tensor::QuantMode::Int8};
    const std::span<const data::Record> test_records(
        scenario.test.records());
    const std::size_t memo_n = std::min<std::size_t>(512,
                                                     test_records.size());
    const std::size_t cache_records = scenario.train.records().size();

    double cache_bytes[3] = {0, 0, 0};
    double memo_bytes[3] = {0, 0, 0};
    for (int mi = 0; mi < 3; ++mi) {
      const tensor::ScopedQuantMode pin(kModes[mi]);
      // Columns are scored on first read; score them all so the
      // footprint is the full pool's.
      core::ScoreCache cache(scenario.pool, scenario.train, kModes[mi]);
      cache.score_all();
      cache_bytes[mi] = static_cast<double>(cache.footprint_bytes());
      serve::InferenceEngine engine(fused_calibrated);
      (void)engine.predict_batch(test_records.subspan(0, memo_n));
      memo_bytes[mi] = static_cast<double>(engine.memo_bytes());
    }

    TextTable mem_table({"score state", "cache B/rec", "memo B/rec",
                         "cache vs float"});
    for (int mi = 0; mi < 3; ++mi) {
      const std::string name(tensor::quant_mode_name(kModes[mi]));
      mem_table.add_row(
          {name,
           format_fixed(cache_bytes[mi] / static_cast<double>(cache_records),
                        1),
           format_fixed(memo_bytes[mi] / static_cast<double>(memo_n), 1),
           format_fixed(cache_bytes[0] / cache_bytes[mi], 2) + "x"});
      json.add("memory.cache_bytes." + name, cache_bytes[mi]);
      json.add("memory.cache_bytes_per_record." + name,
               cache_bytes[mi] / static_cast<double>(cache_records));
      json.add("memory.memo_bytes_per_record." + name,
               memo_bytes[mi] / static_cast<double>(memo_n));
    }
    mem_table.print(std::cout);
    const double int8_cache_ratio = cache_bytes[0] / cache_bytes[2];
    const double int8_memo_ratio = memo_bytes[0] / memo_bytes[2];
    json.add("memory.cache_ratio_bf16", cache_bytes[0] / cache_bytes[1]);
    json.add("memory.cache_ratio_int8", int8_cache_ratio);
    json.add("memory.memo_ratio_int8", int8_memo_ratio);
    json.add("memory.int8_ratio_floor", 3.0);
    std::cout << "int8 score state holds "
              << format_fixed(int8_cache_ratio, 2) << "x (cache) / "
              << format_fixed(int8_memo_ratio, 2)
              << "x (serve memo) less than float; floor 3.00x\n\n";
    // The footprint ratio is deterministic arithmetic, so the gate holds
    // in smoke mode too.
    if (int8_cache_ratio < 3.0 || int8_memo_ratio < 3.0) {
      std::cout << "FAIL: int8 score state is not >= 3x smaller than "
                   "float\n";
      pass = false;
    }

    // Accuracy gates on a genuinely trained body (the mlp_pool models),
    // evaluated over the whole scenario corpus: the comparison is
    // quant-vs-float on identical data, and the larger sample keeps the
    // group-conditioned fairness metrics from swinging on a handful of
    // near-tie argmax flips.
    const models::ModelPtr gate_model = mlp_pool.share(0);
    const std::span<const data::Record> gate_records(
        scenario.full.records());
    std::vector<std::size_t> exact_argmax(gate_records.size());
    fairness::FairnessReport exact_report;
    {
      const tensor::ScopedQuantMode pin(tensor::QuantMode::Off);
      const tensor::Matrix scores = gate_model->score_batch(gate_records);
      for (std::size_t i = 0; i < scores.rows(); ++i) {
        exact_argmax[i] = tensor::argmax(scores.row(i));
      }
      exact_report = fairness::evaluate_model(*gate_model, scenario.full);
    }
    TextTable acc_table({"quant accuracy", "argmax parity", "acc delta",
                         "unfairness delta"});
    for (int mi = 1; mi < 3; ++mi) {
      const std::string name(tensor::quant_mode_name(kModes[mi]));
      const tensor::ScopedQuantMode pin(kModes[mi]);
      const tensor::Matrix scores = gate_model->score_batch(gate_records);
      std::size_t agree = 0;
      for (std::size_t i = 0; i < scores.rows(); ++i) {
        agree += tensor::argmax(scores.row(i)) == exact_argmax[i] ? 1 : 0;
      }
      const double parity = static_cast<double>(agree) /
                            static_cast<double>(gate_records.size());
      const fairness::FairnessReport report =
          fairness::evaluate_model(*gate_model, scenario.full);
      const double acc_delta = std::abs(report.accuracy -
                                        exact_report.accuracy);
      const double fair_delta = std::abs(report.overall_unfairness() -
                                         exact_report.overall_unfairness());
      acc_table.add_row({name, format_fixed(parity, 4),
                         format_fixed(acc_delta, 4),
                         format_fixed(fair_delta, 4)});
      json.add("memory.parity." + name, parity);
      json.add("memory.accuracy_delta." + name, acc_delta);
      json.add("memory.unfairness_delta." + name, fair_delta);
      // Smoke's half-trained body (4 epochs) sits closer to the decision
      // boundary, so near-tie argmax flips are more common; the 0.99
      // acceptance floor applies to the fully trained full-mode body.
      const double parity_floor = smoke ? 0.97 : 0.99;
      if (parity < parity_floor) {
        std::cout << "FAIL: " << name << " argmax parity below the "
                  << format_fixed(parity_floor, 2) << " floor\n";
        pass = false;
      }
      if (acc_delta > 0.02 || fair_delta > 0.02) {
        std::cout << "FAIL: " << name
                  << " fairness metrics drift beyond 0.02\n";
        pass = false;
      }
    }
    json.add("memory.parity_floor", smoke ? 0.97 : 0.99);
    json.add("memory.fairness_delta_ceiling", 0.02);
    acc_table.print(std::cout);
    std::cout << "\n";

    // Artifact cold-start: a serving-scale body (~1.2M parameters full
    // mode), measured as time-to-ready — open + construct, the interval
    // a restarting shard spends before it can accept traffic. The heap
    // path reads and copies every byte up front; the mapped path parses
    // the table and wires weight spans at the mapping, deferring page
    // reads to first touch (scoring parity is asserted separately below).
    nn::MlpSpec big;
    big.input_dim = smoke ? 256 : 512;
    big.hidden_dims = smoke ? std::vector<std::size_t>{384, 256}
                            : std::vector<std::size_t>{1024, 512};
    big.output_dim = smoke ? 128 : 256;
    nn::Mlp body(big);
    SplitRng body_rng(41);
    body.init(body_rng);
    const std::string artifact_path = "bench_batch_artifact.mufa";
    {
      data::ArtifactWriter writer;
      body.save_artifact(writer, "body");
      writer.write_file(artifact_path);
    }
    tensor::Matrix probe(1, big.input_dim);
    {
      SplitRng probe_rng(43);
      for (double& v : probe.flat()) v = probe_rng.normal(0.0, 1.0);
    }
    std::size_t sink = 0;
    const std::size_t cold_reps = smoke ? 8 : 25;
    const double t_heap = time_best_of(cold_reps, [&]() {
      const data::Artifact a = data::Artifact::load_file(artifact_path);
      const nn::Mlp m = nn::Mlp::from_artifact(a, "body");
      sink += m.parameter_count();
    });
    const double t_map = time_best_of(cold_reps, [&]() {
      const data::Artifact a = data::Artifact::map_file(artifact_path);
      const nn::Mlp m = nn::Mlp::map_artifact(a, "body");
      sink += m.parameter_count();
    });
    // Bit-identity of the two serving substrates before trusting the
    // timing comparison.
    {
      const data::Artifact heap_a = data::Artifact::load_file(artifact_path);
      const data::Artifact map_a = data::Artifact::map_file(artifact_path);
      const nn::Mlp heap_m = nn::Mlp::from_artifact(heap_a, "body");
      const nn::Mlp map_m = nn::Mlp::map_artifact(map_a, "body");
      if (!bitwise_equal(heap_m.forward_batch_inference(probe),
                         map_m.forward_batch_inference(probe))) {
        std::cout << "FAIL: mapped artifact scores diverge from the heap "
                     "load\n";
        pass = false;
      }
      json.add("memory.artifact_bytes",
               static_cast<double>(map_a.byte_size()));
    }
    std::remove(artifact_path.c_str());
    const double cold_speedup = t_heap / t_map;
    const double cold_floor = smoke ? 3.0 : 10.0;
    TextTable cold_table({"artifact cold-start", "best us", "speedup"});
    cold_table.add_row({"load_file (heap copy)",
                        format_fixed(t_heap * 1e6, 1), "1.00x"});
    cold_table.add_row({"map_file (zero-copy)",
                        format_fixed(t_map * 1e6, 1),
                        format_fixed(cold_speedup, 2) + "x"});
    cold_table.print(std::cout);
    std::cout << "mmap cold-start speedup " << format_fixed(cold_speedup, 2)
              << "x vs floor " << format_fixed(cold_floor, 2)
              << "x (" << sink / (2 * cold_reps) << " params)\n\n";
    json.add("memory.coldstart.heap_us", t_heap * 1e6);
    json.add("memory.coldstart.map_us", t_map * 1e6);
    json.add("memory.coldstart.speedup", cold_speedup);
    json.add("memory.coldstart.floor", cold_floor);
    if (cold_speedup < cold_floor) {
      std::cout << "FAIL: mmap cold-start below the "
                << format_fixed(cold_floor, 2) << "x floor\n";
      pass = false;
    }
  }

  const double floor = smoke ? 1.3 : 2.0;
  std::cout << "fused (trainable bodies) batched speedup at batch 32: "
            << format_fixed(trainable_speedup32, 2) << "x; floor "
            << format_fixed(floor, 2) << "x\n";
  if (trainable_speedup32 < floor) {
    std::cout << "FAIL: batched fused scoring below the acceptance floor\n";
    pass = false;
  }

  // Calibrated floors: relaxed in smoke (trimmed scenario, loaded CI
  // runners), acceptance-strength in full mode.
  const double calibrated_floor = smoke ? 1.2 : 1.5;
  const double calibrated_rps_floor = smoke ? 200000.0 : 365000.0;
  std::cout << "fused (calibrated bodies) batched speedup at batch 32: "
            << format_fixed(calibrated_speedup32, 2) << "x; floor "
            << format_fixed(calibrated_floor, 2) << "x; "
            << static_cast<long long>(calibrated_rps32)
            << " rows/s vs throughput floor "
            << static_cast<long long>(calibrated_rps_floor)
            << " (10x the PR-6 committed baseline)\n";
  if (calibrated_speedup32 < calibrated_floor) {
    std::cout << "FAIL: batched calibrated scoring below the speedup "
                 "floor\n";
    pass = false;
  }
  if (calibrated_rps32 < calibrated_rps_floor) {
    std::cout << "FAIL: batched calibrated scoring below the absolute "
                 "throughput floor\n";
    pass = false;
  }

  json.add("fused_trainable.floor", floor);
  json.add("fused_calibrated.floor", calibrated_floor);
  json.add("fused_calibrated.rps_floor", calibrated_rps_floor);
  json.add("pass", pass);
  if (!json.write(out_path)) pass = false;
  std::cout << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}
