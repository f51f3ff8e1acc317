// bench_obs_overhead — what the obs and failpoint layers cost the engine.
//
// Serves one trace through the steady-state batched engine (the hottest
// instrumented path: per-request counters, batch/latency histograms,
// the queue-depth gauge, the disarmed submit and score failpoints),
// best of 3 so scheduler noise on a shared runner does not decide a
// sub-2% comparison. Every reply's argmax is checked against a
// per-record FusedModel::scores loop over the same trace.
//
// The figure means something only next to a second build: CI builds the
// tree twice — default, and -DMUFFIN_OBS=OFF -DMUFFIN_FAILPOINTS=OFF —
// runs this on both, interleaved, and gates the ratio of the reported
// smoke.rps at 0.98. `smoke.obs_compiled_in` and
// `smoke.failpoints_compiled_in` say which build wrote the file.
//
// Env knobs (bench_util.h): MUFFIN_SAMPLES (default 1500, a 1,500-request
// trace), MUFFIN_SEED; MUFFIN_THREADS defaults to 4. Writes
// BENCH_obs_overhead.json to the current directory, or to the path given
// with `--out`. Exits non-zero on an argmax mismatch or when the JSON
// cannot be written.
#include <chrono>
#include <cstdlib>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "common/failpoint.h"
#include "core/fused.h"
#include "core/head_trainer.h"
#include "core/proxy.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "tensor/ops.h"

using namespace muffin;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::shared_ptr<core::FusedModel> build_fused(
    const bench::IsicScenario& scenario) {
  rl::StructureChoice choice;
  choice.model_indices = {scenario.pool.index_of("ShuffleNet_V2_X1_0"),
                          scenario.pool.index_of("DenseNet121")};
  choice.hidden_dims = {18, 12};
  choice.activation = nn::Activation::Relu;
  const core::FusingStructure structure = core::FusingStructure::from_choice(
      choice, scenario.full.num_classes());

  const core::ScoreCache cache(scenario.pool, scenario.train);
  const core::ProxyDataset proxy = core::build_proxy(scenario.train);
  core::HeadTrainConfig config;
  config.epochs = 10;
  nn::Mlp head =
      core::train_head(cache, scenario.train, proxy, structure, config);

  std::vector<models::ModelPtr> body = {
      scenario.pool.share(choice.model_indices[0]),
      scenario.pool.share(choice.model_indices[1])};
  return std::make_shared<core::FusedModel>("Muffin", std::move(body),
                                            std::move(head));
}

struct RunResult {
  double requests_per_second = 0.0;
  std::vector<std::size_t> predictions;
  obs::MetricsSnapshot metrics;  // engine runs only
};

RunResult run_sequential(const core::FusedModel& fused,
                         const std::vector<const data::Record*>& trace) {
  RunResult result;
  result.predictions.reserve(trace.size());
  const Clock::time_point start = Clock::now();
  for (const data::Record* record : trace) {
    result.predictions.push_back(tensor::argmax(fused.scores(*record)));
  }
  result.requests_per_second =
      static_cast<double>(trace.size()) / seconds_since(start);
  return result;
}

RunResult run_engine(std::shared_ptr<const core::FusedModel> fused,
                     const std::vector<const data::Record*>& trace,
                     serve::EngineConfig config) {
  serve::InferenceEngine engine(std::move(fused), config);
  RunResult result;
  result.predictions.reserve(trace.size());
  std::vector<std::future<serve::Prediction>> futures;
  futures.reserve(trace.size());
  const Clock::time_point start = Clock::now();
  for (const data::Record* record : trace) {
    futures.push_back(engine.submit(*record));
  }
  for (std::future<serve::Prediction>& future : futures) {
    result.predictions.push_back(future.get().predicted);
  }
  result.requests_per_second =
      static_cast<double>(trace.size()) / seconds_since(start);
  result.metrics = engine.metrics();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_obs_overhead.json";
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_obs_overhead [--out PATH]\n";
      return 2;
    }
  }
  setenv("MUFFIN_THREADS", "4", /*overwrite=*/0);
  const bench::IsicScenario scenario(bench::env_size("MUFFIN_SAMPLES", 1500));
  const std::shared_ptr<core::FusedModel> fused = build_fused(scenario);

  // Steady-state serving trace: uniform-with-replacement draws from the
  // test split (hot records repeat, as in production traffic).
  const data::Dataset& test = scenario.test;
  SplitRng trace_rng(bench::env_size("MUFFIN_SEED", 2019) ^ 0x5e27eULL);
  const std::size_t trace_len = 5 * test.size();
  std::vector<const data::Record*> trace;
  trace.reserve(trace_len);
  for (std::size_t i = 0; i < trace_len; ++i) {
    trace.push_back(&test.record(trace_rng.index(test.size())));
  }

  serve::EngineConfig engine_config;
  engine_config.max_batch = 32;

  const RunResult seq = run_sequential(*fused, trace);
  RunResult best = run_engine(fused, trace, engine_config);
  bool parity = seq.predictions == best.predictions;
  for (int round = 0; round < 2; ++round) {
    RunResult next = run_engine(fused, trace, engine_config);
    parity = parity && seq.predictions == next.predictions;
    if (next.requests_per_second > best.requests_per_second) {
      best = std::move(next);
    }
  }

  std::cout << "smoke: obs "
            << (obs::compiled_in() ? "compiled in" : "compiled OUT")
            << ", failpoints "
            << (fail::compiled_in() ? "compiled in" : "compiled OUT") << ", "
            << trace_len << " requests, best of 3: "
            << static_cast<long long>(best.requests_per_second)
            << " req/s, argmax parity "
            << (parity ? "bit-identical" : "MISMATCH") << "\n";

  bench::BenchJson json;
  json.add("smoke.rps", best.requests_per_second);
  json.add("smoke.requests", trace_len);
  json.add("smoke.obs_compiled_in", obs::compiled_in());
  json.add("smoke.failpoints_compiled_in", fail::compiled_in());
  json.add("smoke.cache_hits",
           best.metrics.counter_value("engine.cache_hits"));
  json.add("pass", parity);
  const bool written = json.write(out_path);
  return parity && written ? 0 : 1;
}
