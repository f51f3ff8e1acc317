// bench_serve — serving-runtime throughput on the calibrated ISIC pool.
//
// Compares four ways of answering the same request trace with one fused
// Muffin model:
//   sequential   per-record FusedModel::scores in a loop (the status quo)
//   engine/cold  InferenceEngine, result memo disabled — isolates the
//                micro-batching + consensus-short-circuit machinery
//   engine       InferenceEngine as configured for production (memo on)
//   router       ShardRouter over 4 engine replicas, consistent-hash on
//                uid — the sharded tier; reports aggregate memo hit rate
//                so memo affinity across shards is visible
//   remote       ShardRouter over 2 rpc::ShardServer processes-worth of
//                shard on loopback sockets (same binary, own engines) vs
//                the same topology in-process — measures what the
//                batched wire format costs; gated on the absolute
//                per-request overhead the hop adds (<= 6 us) rather
//                than a throughput ratio, which stopped being meaningful
//                once the calibrated batch kernel cut scoring to ~1 us
//
// Two operational drills close the run. Degraded mode: the same
// two-shard loopback topology fronted by a retrying router, with one
// shard hard-killed mid-run — the health monitor must drain the dead
// shard within a bounded recovery window and the surviving topology must
// serve with zero caller-visible errors. Hot swap: reload_all rolls six
// model versions across the live fleet under sustained client load —
// zero caller-visible errors, every reply bit-identical to the
// generation its row-level version names (proving the version-keyed
// result memo leak-free), and the roll-window p99 within one batch
// latency of the warm p99.
//
// The trace models steady-state serving traffic: requests drawn uniformly
// with replacement from the test split, so hot records repeat — the regime
// a result memo exists for. A cold single-pass section is reported too so
// the cache never hides the raw batch-path cost. Every engine answer is
// checked argmax-bit-identical against the sequential path; the bench
// fails loudly otherwise.
//
// Env knobs (bench_util.h): MUFFIN_SAMPLES, MUFFIN_SEED. Default sample
// count is trimmed to keep the bench interactive. Writes BENCH_serve.json
// to the current directory, or to the path given with `--out` (CI runs
// from the repo root so the perf trajectory lands next to the sources).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/failpoint.h"
#include "common/parallel_for.h"
#include "core/head_trainer.h"
#include "data/serialize.h"
#include "obs/metrics.h"
#include "serve/router.h"
#include "serve/rpc/server.h"
#include "tensor/ops.h"
#include "tensor/quant.h"

using namespace muffin;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::shared_ptr<core::FusedModel> build_fused(
    const bench::IsicScenario& scenario, std::size_t head_epochs = 10) {
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
  config.epochs = head_epochs;
  nn::Mlp head =
      core::train_head(cache, scenario.train, proxy, structure, config);

  std::vector<models::ModelPtr> body = {
      scenario.pool.share(choice.model_indices[0]),
      scenario.pool.share(choice.model_indices[1])};
  return std::make_shared<core::FusedModel>("Muffin", std::move(body),
                                            std::move(head));
}

struct RunResult {
  double seconds = 0.0;
  double requests_per_second = 0.0;
  std::vector<std::size_t> predictions;
  obs::MetricsSnapshot metrics;  // engine runs only

  [[nodiscard]] std::uint64_t counter(std::string_view name) const {
    return metrics.counter_value(name);
  }
  [[nodiscard]] double latency_us(double q) const {
    const obs::HistogramSnapshot* latency =
        metrics.find_histogram("engine.latency_us");
    return latency != nullptr ? latency->percentile(q) : 0.0;
  }
};

RunResult run_sequential(const core::FusedModel& fused,
                         const std::vector<const data::Record*>& trace) {
  RunResult result;
  result.predictions.reserve(trace.size());
  const Clock::time_point start = Clock::now();
  for (const data::Record* record : trace) {
    result.predictions.push_back(tensor::argmax(fused.scores(*record)));
  }
  result.seconds = seconds_since(start);
  result.requests_per_second =
      static_cast<double>(trace.size()) / result.seconds;
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
  result.seconds = seconds_since(start);
  result.requests_per_second =
      static_cast<double>(trace.size()) / result.seconds;
  result.metrics = engine.metrics();
  return result;
}

RunResult run_router(std::shared_ptr<const core::FusedModel> fused,
                     const std::vector<const data::Record*>& trace,
                     serve::RouterConfig config) {
  serve::ShardRouter router(std::move(fused), config);
  RunResult result;
  result.predictions.reserve(trace.size());
  std::vector<std::future<serve::Prediction>> futures;
  futures.reserve(trace.size());
  const Clock::time_point start = Clock::now();
  for (const data::Record* record : trace) {
    futures.push_back(router.submit(*record));
  }
  for (std::future<serve::Prediction>& future : futures) {
    result.predictions.push_back(future.get().predicted);
  }
  result.seconds = seconds_since(start);
  result.requests_per_second =
      static_cast<double>(trace.size()) / result.seconds;
  result.metrics = router.aggregate_metrics();
  return result;
}

bool identical(const std::vector<std::size_t>& a,
               const std::vector<std::size_t>& b) {
  return a == b;
}

/// The cross-process tier on loopback: two shard servers (own engines,
/// real sockets, batched frames) fronted by a remote-only router.
/// `listen_a`/`listen_b` pick the transport: loopback TCP or a
/// unix-domain socket (the recommended same-host transport).
RunResult run_remote(std::shared_ptr<const core::FusedModel> fused,
                     const std::vector<const data::Record*>& trace,
                     serve::EngineConfig engine_config,
                     const std::string& listen_a,
                     const std::string& listen_b) {
  serve::rpc::ShardServer shard_a(fused, listen_a);
  serve::rpc::ShardServer shard_b(fused, listen_b);

  serve::RouterConfig router_config;
  router_config.shards = 0;
  router_config.remote_endpoints = {shard_a.address(), shard_b.address()};
  // Wire frames are cheapest when fat: ship double-size frames (each one
  // is scored on the server as one batch) over a slightly deeper
  // connection pool, since a server scores one frame per connection at a
  // time.
  router_config.remote.max_batch = 2 * engine_config.max_batch;
  router_config.remote.connections = 3;
  serve::ShardRouter router(nullptr, router_config);

  RunResult result;
  result.predictions.reserve(trace.size());
  std::vector<std::future<serve::Prediction>> futures;
  futures.reserve(trace.size());
  const Clock::time_point start = Clock::now();
  for (const data::Record* record : trace) {
    futures.push_back(router.submit(*record));
  }
  for (std::future<serve::Prediction>& future : futures) {
    result.predictions.push_back(future.get().predicted);
  }
  result.seconds = seconds_since(start);
  result.requests_per_second =
      static_cast<double>(trace.size()) / result.seconds;
  result.metrics = router.aggregate_metrics();
  router.shutdown();
  shard_a.stop();
  shard_b.stop();
  return result;
}

std::uint64_t obs_counter(const std::string& name) {
  return obs::registry().snapshot().counter_value(name);
}

/// Degraded-mode drill: two loopback shard servers behind a router with
/// retries enabled; shard A is hard-killed (listener + engine torn down,
/// in-flight connections reset) while traffic keeps flowing. Measures
/// how long the health monitor takes to drain the corpse off the ring
/// and whether any failure ever reaches a caller once it has.
struct DegradedResult {
  std::size_t warm_requests = 0;
  std::size_t warm_failures = 0;
  std::size_t mid_requests = 0;        ///< kill .. auto-drain window
  std::size_t mid_failures = 0;        ///< not masked by retry/failover
  std::size_t post_requests = 0;
  std::size_t post_drain_failures = 0;
  double kill_to_drain_ms = 0.0;
  bool drained = false;                ///< monitor took the shard off
  bool parity = true;                  ///< every answer bit-identical
  std::uint64_t retries = 0;           ///< serve.retries spent in drill
  std::uint64_t failovers = 0;         ///< serve.failovers in drill
};

DegradedResult run_degraded(std::shared_ptr<const core::FusedModel> fused,
                            const std::vector<const data::Record*>& trace,
                            const std::string& listen_a,
                            const std::string& listen_b) {
  auto shard_a = std::make_unique<serve::rpc::ShardServer>(fused, listen_a);
  serve::rpc::ShardServer shard_b(fused, listen_b);

  serve::RouterConfig router_config;
  router_config.shards = 0;
  router_config.remote_endpoints = {shard_a->address(), shard_b.address()};
  router_config.remote.connections = 2;
  router_config.remote.request_timeout = std::chrono::milliseconds(2000);
  // Fast reconnect cadence: the drill measures drain latency, and a dead
  // endpoint should fail batches quickly rather than queue behind dials.
  router_config.remote.backoff_initial = std::chrono::milliseconds(20);
  router_config.remote.backoff_cap = std::chrono::milliseconds(200);
  router_config.health.probe_interval = std::chrono::milliseconds(50);
  router_config.health.failure_threshold = 2;
  router_config.retry.max_attempts = 3;
  serve::ShardRouter router(nullptr, router_config);

  DegradedResult result;
  result.retries = obs_counter("serve.retries");
  result.failovers = obs_counter("serve.failovers");
  const auto wave = [&](std::size_t count, std::size_t* requests,
                        std::size_t* failures) {
    for (std::size_t i = 0; i < count; ++i) {
      const data::Record& record = *trace[*requests % trace.size()];
      ++*requests;
      try {
        const serve::Prediction got = router.predict(record);
        if (got.predicted != tensor::argmax(fused->scores(record))) {
          result.parity = false;
        }
      } catch (const std::exception&) {
        ++*failures;
      }
    }
  };

  // Healthy cluster: both shards serving, retries idle.
  wave(200, &result.warm_requests, &result.warm_failures);

  // Hard kill: destroy the server outright — sockets reset mid-pipeline,
  // nothing drains gracefully. Keep predicting through the outage window
  // until the monitor drains the shard (retries must mask the corpse).
  shard_a->stop();
  shard_a.reset();
  const Clock::time_point killed = Clock::now();
  while (router.active_count() > 1 && seconds_since(killed) < 5.0) {
    wave(20, &result.mid_requests, &result.mid_failures);
  }
  result.drained = router.active_count() == 1;
  result.kill_to_drain_ms = seconds_since(killed) * 1000.0;

  // Post-drain: the ring holds only the survivor; nothing left to mask.
  wave(400, &result.post_requests, &result.post_drain_failures);

  result.retries = obs_counter("serve.retries") - result.retries;
  result.failovers = obs_counter("serve.failovers") - result.failovers;
  router.shutdown();
  shard_b.stop();
  return result;
}

/// Mirror of serve::ResultMemo::canonicalize for the active quant
/// mode, so hot-swap parity checks stay bit-exact in every CI quant lane.
tensor::Vector canonical(tensor::Vector scores) {
  switch (tensor::active_quant_mode()) {
    case tensor::QuantMode::Off:
      break;
    case tensor::QuantMode::Bf16:
      for (double& s : scores) {
        s = tensor::bf16_to_double(tensor::bf16_from_double(s));
      }
      break;
    case tensor::QuantMode::Int8: {
      const double scale = tensor::i8_scale(scores);
      for (double& s : scores) {
        s = tensor::i8_to_double(tensor::i8_from_double(s, scale), scale);
      }
      break;
    }
  }
  return scores;
}

double p99_us(std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[(samples.size() - 1) * 99 / 100];
}

/// Hot-swap drill: a live two-shard loopback fleet serving sustained
/// traffic while reload_all rolls `rolls` model versions across it,
/// alternating between two head generations. Gates (the zero-downtime
/// lifecycle acceptance): zero caller-visible errors, every reply
/// bit-identical to the generation its row-level version names (which
/// proves the version-keyed memo leak-free — a stale memo entry would
/// pair old scores with a new version), and the client-observed p99
/// during the roll window within one batch latency of the warm p99.
struct HotSwapResult {
  std::size_t rolls = 0;
  std::size_t requests = 0;
  std::size_t failures = 0;          ///< caller-visible errors (gate: 0)
  std::size_t mismatches = 0;        ///< reply != its version's scores
  std::size_t stale_cache_hits = 0;  ///< mismatched AND flagged cached
  bool versions_monotonic = true;    ///< every roll advanced both shards
  double warm_p99_us = 0.0;
  double roll_p99_us = 0.0;
  double max_reload_ms = 0.0;        ///< slowest whole-fleet roll
};

HotSwapResult run_hotswap(
    const std::vector<std::shared_ptr<core::FusedModel>>& generations,
    const std::vector<const data::Record*>& trace,
    const std::string& listen_a, const std::string& listen_b,
    std::size_t rolls) {
  // One unstamped reload artifact per generation: every install
  // auto-assigns the next version on each shard, so the same file can
  // roll the fleet any number of times.
  std::vector<std::string> artifact_paths;
  for (std::size_t g = 0; g < generations.size(); ++g) {
    const std::string path = "/tmp/muffin_bench_hotswap_" +
                             std::to_string(::getpid()) + "_" +
                             std::to_string(g) + ".mufa";
    data::ArtifactWriter writer;
    generations[g]->head().save_artifact(writer, "head");
    writer.write_file(path);
    artifact_paths.push_back(path);
  }

  serve::rpc::ShardServer shard_a(generations[0], listen_a);
  serve::rpc::ShardServer shard_b(generations[0], listen_b);
  serve::RouterConfig router_config;
  router_config.shards = 0;
  router_config.remote_endpoints = {shard_a.address(), shard_b.address()};
  router_config.remote.connections = 2;
  serve::ShardRouter router(nullptr, router_config);

  HotSwapResult result;
  result.rolls = rolls;
  // Version -> generation: version 1 is generations[0] (construction);
  // roll k installs generations[(k + 1) % G] as version k + 2.
  const auto generation_for = [&](std::uint64_t version)
      -> const core::FusedModel& {
    if (version <= 1) return *generations[0];
    return *generations[(version - 1) % generations.size()];
  };

  std::atomic<int> phase{0};  // 0 warm, 1 rolling, 2 shutting down
  std::atomic<std::size_t> requests{0};
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> stale_cache_hits{0};
  constexpr std::size_t kClients = 3;
  std::vector<std::vector<double>> warm_samples(kClients);
  std::vector<std::vector<double>> roll_samples(kClients);
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t]() {
      for (std::size_t i = 0; phase.load() != 2; ++i) {
        const data::Record& record =
            *trace[(t * 131 + i * 7) % trace.size()];
        const int current_phase = phase.load();
        const Clock::time_point begin = Clock::now();
        try {
          const serve::Prediction reply = router.predict(record);
          const double us = seconds_since(begin) * 1e6;
          (current_phase == 0 ? warm_samples : roll_samples)[t].push_back(us);
          if (reply.scores !=
              canonical(generation_for(reply.model_version).scores(record))) {
            mismatches.fetch_add(1);
            if (reply.cached) stale_cache_hits.fetch_add(1);
          }
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
        requests.fetch_add(1);
      }
    });
  }

  // Warm phase, then roll the fleet `rolls` times under load.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  phase.store(1);
  for (std::size_t k = 0; k < rolls; ++k) {
    const std::string& path = artifact_paths[(k + 1) % artifact_paths.size()];
    const Clock::time_point begin = Clock::now();
    const std::vector<std::uint64_t> versions = router.reload_all(path);
    result.max_reload_ms =
        std::max(result.max_reload_ms, seconds_since(begin) * 1000.0);
    for (const std::uint64_t version : versions) {
      if (version != k + 2) result.versions_monotonic = false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  phase.store(2);
  for (std::thread& client : clients) client.join();

  result.requests = requests.load();
  result.failures = failures.load();
  result.mismatches = mismatches.load();
  result.stale_cache_hits = stale_cache_hits.load();
  std::vector<double> warm;
  std::vector<double> rolling;
  for (std::size_t t = 0; t < kClients; ++t) {
    warm.insert(warm.end(), warm_samples[t].begin(), warm_samples[t].end());
    rolling.insert(rolling.end(), roll_samples[t].begin(),
                   roll_samples[t].end());
  }
  result.warm_p99_us = p99_us(warm);
  result.roll_p99_us = p99_us(rolling);

  router.shutdown();
  shard_a.stop();
  shard_b.stop();
  for (const std::string& path : artifact_paths) std::remove(path.c_str());
  return result;
}

/// --smoke: a trimmed single-section run for the CI metrics-overhead
/// gate. Measures only the steady-state batched engine (the hottest
/// instrumented path: per-request counters, batch/latency histograms,
/// batcher flush accounting), best-of-3 so scheduler noise on a shared
/// runner does not decide a sub-2% comparison. CI builds the tree twice
/// — default and -DMUFFIN_OBS=OFF — runs this on both, and compares the
/// reported smoke.rps; `smoke.obs_compiled_in` says which build this is.
int run_smoke(const std::string& out_path) {
  setenv("MUFFIN_THREADS", "4", /*overwrite=*/0);
  const bench::IsicScenario scenario(bench::env_size("MUFFIN_SAMPLES", 1500));
  const std::shared_ptr<core::FusedModel> fused = build_fused(scenario);

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
  engine_config.max_delay = std::chrono::microseconds(1000);

  const RunResult seq = run_sequential(*fused, trace);
  RunResult best = run_engine(fused, trace, engine_config);
  bool parity = identical(seq.predictions, best.predictions);
  for (int round = 0; round < 2; ++round) {
    RunResult next = run_engine(fused, trace, engine_config);
    parity = parity && identical(seq.predictions, next.predictions);
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
  json.add("smoke.cache_hits", best.counter("engine.cache_hits"));
  json.add("pass", parity);
  json.write(out_path);
  return parity ? 0 : 1;
}

void add_row(TextTable& table, const std::string& name, const RunResult& run,
             double baseline_rps, bool engine_run) {
  std::vector<std::string> row = {
      name,
      std::to_string(static_cast<long long>(run.requests_per_second)),
      format_fixed(run.requests_per_second / baseline_rps, 2) + "x"};
  if (engine_run) {
    row.push_back(format_fixed(run.latency_us(50), 0));
    row.push_back(format_fixed(run.latency_us(95), 0));
    row.push_back(format_fixed(run.latency_us(99), 0));
    row.push_back(
        std::to_string(run.counter("engine.consensus_short_circuits")));
    row.push_back(std::to_string(run.counter("engine.cache_hits")));
  } else {
    for (int i = 0; i < 5; ++i) row.push_back("-");
  }
  table.add_row(std::move(row));
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_serve.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::string_view(argv[i]) == "--smoke") {
      smoke = true;
    }
  }
  if (smoke) return run_smoke(out_path);
  // The bench header promises 4 workers; engines draw from the
  // process-wide shared pool, so pin its size up front (first-use sizing) so
  // the measured concurrency — and the duplicate-per-batch memo dynamics
  // the affinity check depends on — match the declared setup even on
  // narrow hosts. An explicit MUFFIN_THREADS from the caller wins.
  setenv("MUFFIN_THREADS", "4", /*overwrite=*/0);
  bench::print_header(
      "Serving runtime: batched engine vs per-record scoring",
      "ISIC2019 calibrated pool; fused ShuffleNet+DenseNet muffin model.\n"
      "4 workers, micro-batches flushed at size or 1 ms deadline.");

  const bench::IsicScenario scenario(bench::env_size("MUFFIN_SAMPLES", 6000));
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
  // Cold trace: every test record exactly once (no repeats to exploit).
  std::vector<const data::Record*> cold_trace;
  cold_trace.reserve(test.size());
  for (std::size_t i = 0; i < test.size(); ++i) {
    cold_trace.push_back(&test.record(i));
  }

  serve::EngineConfig engine_config;
  engine_config.max_batch = 32;
  engine_config.max_delay = std::chrono::microseconds(1000);
  serve::EngineConfig no_cache = engine_config;
  no_cache.result_cache_capacity = 0;
  serve::EngineConfig small_batch = engine_config;
  small_batch.max_batch = 8;
  // Sharded tier: 4 replicas sharing the same 4-worker pool, so the
  // comparison against the single engine is core-for-core fair.
  serve::RouterConfig router_config;
  router_config.shards = 4;
  router_config.engine = engine_config;

  std::cout << "trace: " << trace_len << " requests over " << test.size()
            << " distinct records (steady-state) + " << cold_trace.size()
            << " cold single-pass requests\n\n";

  // --- cold single pass -------------------------------------------------
  const RunResult cold_seq = run_sequential(*fused, cold_trace);
  const RunResult cold_engine = run_engine(fused, cold_trace, no_cache);
  TextTable cold_table({"cold single pass", "req/s", "speedup", "p50us",
                        "p95us", "p99us", "consensus", "cache_hits"});
  add_row(cold_table, "sequential", cold_seq, cold_seq.requests_per_second,
          false);
  add_row(cold_table, "engine (memo off)", cold_engine,
          cold_seq.requests_per_second, true);
  cold_table.print(std::cout);
  std::cout << "\n";

  // --- steady state -----------------------------------------------------
  const RunResult seq = run_sequential(*fused, trace);
  const RunResult eng8 = run_engine(fused, trace, small_batch);
  const RunResult eng32 = run_engine(fused, trace, engine_config);
  const RunResult routed = run_router(fused, trace, router_config);
  TextTable table({"steady state", "req/s", "speedup", "p50us", "p95us",
                   "p99us", "consensus", "cache_hits"});
  add_row(table, "sequential", seq, seq.requests_per_second, false);
  add_row(table, "engine b=8", eng8, seq.requests_per_second, true);
  add_row(table, "engine b=32", eng32, seq.requests_per_second, true);
  add_row(table, "router s=4", routed, seq.requests_per_second, true);
  table.print(std::cout);
  std::cout << "\n";

  // --- cross-process tier -----------------------------------------------
  // Same topology both sides — two shards on the shared pool — so the
  // in-process/remote delta isolates exactly the wire format + sockets.
  // Interleaved best-of-2 timing (the bench_batch convention): scheduler
  // noise on a loaded runner must not decide the acceptance gate.
  serve::RouterConfig inproc2_config;
  inproc2_config.shards = 2;
  inproc2_config.engine = engine_config;
  const std::string uds_a =
      "unix:/tmp/muffin_bench_a_" + std::to_string(::getpid()) + ".sock";
  const std::string uds_b =
      "unix:/tmp/muffin_bench_b_" + std::to_string(::getpid()) + ".sock";
  const auto better = [](RunResult a, RunResult b) {
    return a.requests_per_second >= b.requests_per_second ? std::move(a)
                                                          : std::move(b);
  };
  RunResult inproc2 = run_router(fused, trace, inproc2_config);
  const RunResult remote_tcp =
      run_remote(fused, trace, engine_config, "127.0.0.1:0", "127.0.0.1:0");
  RunResult remote = run_remote(fused, trace, engine_config, uds_a, uds_b);
  inproc2 = better(std::move(inproc2), run_router(fused, trace,
                                                  inproc2_config));
  remote = better(std::move(remote),
                  run_remote(fused, trace, engine_config, uds_a, uds_b));
  TextTable remote_table({"cross-process (2 shards)", "req/s", "speedup",
                          "p50us", "p95us", "p99us", "consensus",
                          "cache_hits"});
  add_row(remote_table, "in-process s=2", inproc2,
          seq.requests_per_second, true);
  add_row(remote_table, "remote s=2 (loopback tcp)", remote_tcp,
          seq.requests_per_second, true);
  add_row(remote_table, "remote s=2 (unix socket)", remote,
          seq.requests_per_second, true);
  remote_table.print(std::cout);

  // --- degraded mode ----------------------------------------------------
  // Operational drill, not a throughput section: hard-kill one of the two
  // remote shards mid-run and gate on the fault being fully absorbed.
  const std::string uds_kill =
      "unix:/tmp/muffin_bench_kill_" + std::to_string(::getpid()) + ".sock";
  const DegradedResult degraded =
      run_degraded(fused, trace, uds_kill, uds_b);
  std::cout << "\ndegraded mode (one of two shards hard-killed):\n"
            << "  warm:       " << degraded.warm_requests << " requests, "
            << degraded.warm_failures << " failures\n"
            << "  kill->drain " << format_fixed(degraded.kill_to_drain_ms, 0)
            << " ms (recovery ceiling 3000 ms); outage window "
            << degraded.mid_requests << " requests, "
            << degraded.mid_failures << " caller-visible failures ("
            << degraded.retries << " retries, " << degraded.failovers
            << " failovers absorbed the rest)\n"
            << "  post-drain: " << degraded.post_requests << " requests, "
            << degraded.post_drain_failures
            << " failures (gate: zero), answers "
            << (degraded.parity ? "bit-identical" : "MISMATCH") << "\n";

  // --- hot-swap drill ---------------------------------------------------
  // Zero-downtime lifecycle acceptance: roll N model versions across the
  // live two-shard fleet while clients stream. Zero caller-visible
  // errors, every reply bit-identical to the generation its version
  // names (the version-keyed memo leak proof), and the roll-window p99
  // within one batch latency (flush deadline + warm p99) of the warm p99.
  const std::shared_ptr<core::FusedModel> fused_b =
      build_fused(scenario, /*head_epochs=*/4);
  const std::string uds_swap_a =
      "unix:/tmp/muffin_bench_swap_a_" + std::to_string(::getpid()) + ".sock";
  const std::string uds_swap_b =
      "unix:/tmp/muffin_bench_swap_b_" + std::to_string(::getpid()) + ".sock";
  constexpr std::size_t kRolls = 6;
  const HotSwapResult hotswap = run_hotswap(
      {fused, fused_b}, trace, uds_swap_a, uds_swap_b, kRolls);
  const double swap_pause_p99_us =
      std::max(0.0, hotswap.roll_p99_us - hotswap.warm_p99_us);
  const double one_batch_us =
      static_cast<double>(engine_config.max_delay.count()) +
      hotswap.warm_p99_us;
  const bool hotswap_pass =
      hotswap.failures == 0 && hotswap.mismatches == 0 &&
      hotswap.stale_cache_hits == 0 && hotswap.versions_monotonic &&
      swap_pause_p99_us <= one_batch_us;
  std::cout << "\nhot-swap drill (" << kRolls
            << " versions rolled across the live 2-shard fleet):\n"
            << "  traffic:    " << hotswap.requests << " requests, "
            << hotswap.failures << " caller-visible failures (gate: zero)\n"
            << "  versions:   "
            << (hotswap.versions_monotonic ? "advanced in lockstep on both "
                                             "shards"
                                           : "ROLL SKEW")
            << "; slowest fleet roll "
            << format_fixed(hotswap.max_reload_ms, 1) << " ms\n"
            << "  memo:       " << hotswap.mismatches
            << " replies mismatched their version ("
            << hotswap.stale_cache_hits
            << " stale cache hits; gate: zero — version-keyed memo "
            << (hotswap.mismatches == 0 ? "leak-free" : "LEAKED") << ")\n"
            << "  swap pause: p99 " << format_fixed(hotswap.warm_p99_us, 0)
            << " us warm -> " << format_fixed(hotswap.roll_p99_us, 0)
            << " us rolling (+" << format_fixed(swap_pause_p99_us, 0)
            << " us; ceiling one batch = " << format_fixed(one_batch_us, 0)
            << " us)\n";

  // Memo affinity is the property sharding must not break: consistent
  // hashing keeps each uid on one shard, so every distinct record is
  // scored (missed) roughly once somewhere. A broken hash would spread a
  // uid over several shard memos and roughly multiply the miss count, so
  // the gate compares *misses* against the single engine's with slack for
  // scheduling noise — the exact hit rate depends on how many duplicates
  // of a hot uid land in one in-flight batch (both score as misses),
  // which shifts with batch fill timing, pool width and kernel speed.
  const double engine_hit_rate =
      static_cast<double>(eng32.counter("engine.cache_hits")) /
      static_cast<double>(eng32.counter("engine.requests"));
  const double router_hit_rate =
      static_cast<double>(routed.counter("engine.cache_hits")) /
      static_cast<double>(routed.counter("engine.requests"));
  const std::uint64_t engine_misses =
      eng32.counter("engine.requests") - eng32.counter("engine.cache_hits");
  const std::uint64_t router_misses =
      routed.counter("engine.requests") - routed.counter("engine.cache_hits");
  std::cout << "\nsteady-state memo hit rate: engine "
            << format_percent(engine_hit_rate) << " (" << engine_misses
            << " misses), sharded router " << format_percent(router_hit_rate)
            << " (" << router_misses << " misses)\n";

  const bool parity = identical(cold_seq.predictions, cold_engine.predictions)
                      && identical(seq.predictions, eng8.predictions) &&
                      identical(seq.predictions, eng32.predictions) &&
                      identical(seq.predictions, routed.predictions) &&
                      identical(seq.predictions, inproc2.predictions) &&
                      identical(seq.predictions, remote_tcp.predictions) &&
                      identical(seq.predictions, remote.predictions);
  // 1.5x slack: observed scheduling noise stays ~1.1x, a uid split across
  // two shard memos doubles the misses.
  const bool memo_parity =
      router_misses <= engine_misses + engine_misses / 2;
  const double speedup8 = eng8.requests_per_second / seq.requests_per_second;
  const double speedup32 =
      eng32.requests_per_second / seq.requests_per_second;

  std::cout << "argmax parity (every request, all runs): "
            << (parity ? "bit-identical" : "MISMATCH") << "\n";
  std::cout << "sharded memo affinity: "
            << (memo_parity ? "preserved (miss inflation within slack)"
                            : "REGRESSED")
            << "\n";
  // Floors re-based after the calibrated batch kernel (PR 7): with
  // scoring at ~1 us/request the memo no longer buys the old 3x (that
  // floor was measuring the 28 us scoring cost a cache hit skipped, not
  // the machinery). The serving stack now hovers within ~+-20% of the
  // naive loop on a serial pool; the gate is an anti-rot bound that the
  // machinery (batcher + memo + consensus short-circuit) never costs
  // more than ~40% over the naive loop — which still catches a stray
  // per-request scan, lock contention, or a lost short-circuit.
  std::cout << "steady-state speedup: " << format_fixed(speedup8, 2)
            << "x (batch 8), " << format_fixed(speedup32, 2)
            << "x (batch 32); floor 0.70x\n";

  // Batched frames must keep the remote hop cheap. Gated on the absolute
  // per-request overhead the socket hop adds over the identical
  // in-process topology — a ratio gate stopped meaning anything once the
  // calibrated batch kernel cut scoring to ~1 us/request (the wire cost
  // did not change; the compute it used to hide behind did).
  const double remote_ratio =
      remote.requests_per_second / inproc2.requests_per_second;
  const double wire_overhead_us = 1e6 / remote.requests_per_second -
                                  1e6 / inproc2.requests_per_second;
  std::cout << "cross-process efficiency: " << format_fixed(remote_ratio, 2)
            << "x of in-process sharded throughput; wire overhead "
            << format_fixed(wire_overhead_us, 2)
            << " us/request (acceptance ceiling 6 us)\n";

  const bool degraded_pass = degraded.parity && degraded.drained &&
                             degraded.kill_to_drain_ms <= 3000.0 &&
                             degraded.post_drain_failures == 0;
  const bool pass = parity && memo_parity && speedup8 >= 0.7 &&
                    speedup32 >= 0.7 && wire_overhead_us <= 6.0 &&
                    degraded_pass && hotswap_pass;

  // Machine-readable output for cross-PR perf tracking.
  bench::BenchJson json;
  json.add("pool_threads", muffin::common::global_pool_size());
  const char* threads_env = std::getenv("MUFFIN_THREADS");
  json.add_string("muffin_threads",
                  threads_env != nullptr ? threads_env : "auto");
  json.add("trace.requests", trace_len);
  json.add("trace.distinct_records", test.size());
  const auto add_run = [&json](const std::string& key, const RunResult& run,
                               double baseline_rps, bool engine_run) {
    json.add(key + ".rps", run.requests_per_second);
    json.add(key + ".speedup", run.requests_per_second / baseline_rps);
    if (engine_run) {
      json.add(key + ".p50_us", run.latency_us(50));
      json.add(key + ".p99_us", run.latency_us(99));
      json.add(key + ".consensus",
               run.counter("engine.consensus_short_circuits"));
      json.add(key + ".cache_hits", run.counter("engine.cache_hits"));
    }
  };
  add_run("cold.sequential", cold_seq, cold_seq.requests_per_second, false);
  add_run("cold.engine_no_memo", cold_engine, cold_seq.requests_per_second,
          true);
  add_run("steady.sequential", seq, seq.requests_per_second, false);
  add_run("steady.engine_b8", eng8, seq.requests_per_second, true);
  add_run("steady.engine_b32", eng32, seq.requests_per_second, true);
  add_run("steady.router_s4", routed, seq.requests_per_second, true);
  add_run("steady.inproc_s2", inproc2, seq.requests_per_second, true);
  add_run("steady.remote_s2_tcp", remote_tcp, seq.requests_per_second, true);
  add_run("steady.remote_s2", remote, seq.requests_per_second, true);
  json.add("steady.engine_speedup_floor", 0.7);
  json.add("steady.remote_s2.vs_inproc", remote_ratio);
  json.add("steady.remote_s2.wire_overhead_us", wire_overhead_us);
  json.add("steady.remote_s2.wire_overhead_ceiling_us", 6.0);
  json.add("steady.engine_b32.memo_hit_rate", engine_hit_rate);
  json.add("steady.engine_b32.memo_misses", engine_misses);
  json.add("steady.router_s4.memo_hit_rate", router_hit_rate);
  json.add("steady.router_s4.memo_misses", router_misses);
  json.add("degraded.kill_to_drain_ms", degraded.kill_to_drain_ms);
  json.add("degraded.recovery_ceiling_ms", 3000.0);
  json.add("degraded.warm_requests", degraded.warm_requests);
  json.add("degraded.warm_failures", degraded.warm_failures);
  json.add("degraded.mid_requests", degraded.mid_requests);
  json.add("degraded.mid_failures", degraded.mid_failures);
  json.add("degraded.post_requests", degraded.post_requests);
  json.add("degraded.post_drain_failures", degraded.post_drain_failures);
  json.add("degraded.retries", degraded.retries);
  json.add("degraded.failovers", degraded.failovers);
  json.add("degraded.pass", degraded_pass);
  json.add("hotswap.versions_rolled", hotswap.rolls);
  json.add("hotswap.requests", hotswap.requests);
  json.add("hotswap.failures", hotswap.failures);
  json.add("hotswap.mismatches", hotswap.mismatches);
  json.add("hotswap.stale_cache_hits", hotswap.stale_cache_hits);
  json.add("hotswap.versions_monotonic", hotswap.versions_monotonic);
  json.add("hotswap.max_reload_ms", hotswap.max_reload_ms);
  json.add("hotswap.warm_p99_us", hotswap.warm_p99_us);
  json.add("hotswap.roll_p99_us", hotswap.roll_p99_us);
  json.add("hotswap.swap_pause_p99_us", swap_pause_p99_us);
  json.add("hotswap.pause_ceiling_us", one_batch_us);
  json.add("hotswap.pass", hotswap_pass);
  json.add("argmax_parity", parity);
  json.add("pass", pass);
  json.write(out_path);

  std::cout << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}
