// muffin_cli — command-line driver for the framework.
//
//   muffin_cli audit   [--dataset isic|fitzpatrick] [--samples N]
//       fairness report of every pool model (accuracy, per-attribute U)
//   muffin_cli seesaw  [--dataset ...] [--model NAME] [--attribute A]
//       apply Method D and Method L to one model/attribute and show the
//       cross-attribute effect
//   muffin_cli search  [--dataset ...] [--episodes N] [--base NAME]
//                      [--pairs K] [--csv FILE]
//       run the Muffin RL search and print (optionally export) the episode
//       archive and the best fused structure
//   muffin_cli serve   [--dataset ...] [--samples N]
//                      [--batch B] [--requests N] [--listen ADDR]
//                      [--artifact FILE]
//       fuse a default two-model muffin and drive the batched serving
//       engine with a synthetic request trace; prints latency percentiles,
//       throughput and engine counters. With --listen (host:port, port 0
//       for ephemeral, or unix:/path) the process instead becomes one
//       shard of the cross-process tier: it serves the batched RPC wire
//       format on that socket until signalled, scoring each request frame
//       as one batch as it is read (the batch size is the client's
//       `route --batch`, so --batch does not apply) — SIGTERM drains
//       gracefully (stop accepting, answer every frame clients already
//       sent, then exit 0), SIGINT stops hard. With --artifact, the
//       muffin head comes from a binary model artifact: an existing file
//       is mmap'd read-only and served zero-copy (no head training, no
//       heap copy of the weights — the shard cold-start path); a missing
//       file is created after the default head is trained, so the next
//       start maps it.
//   muffin_cli route   [--dataset ...] [--samples N] [--shards S]
//                      [--batch B] [--requests N]
//                      [--remote A,B,...] [--probe-ms P] [--fail-after K]
//                      [--retry N]
//       same trace, but served through the consistent-hash ShardRouter.
//       --retry N allows up to N submit attempts per request, failing
//       over to the next healthy ring replica (answers stay
//       bit-identical); a resilience summary line (retries, failovers,
//       sheds) is printed after the trace.
//       By default over S in-process engine replicas; with --remote, over
//       the listed shard-server endpoints instead (health-probed every P
//       ms, auto-drained after K consecutive failures). Prints the merged
//       aggregate view plus a per-shard table (placement, routed traffic,
//       memo entries, cache hits).
//   muffin_cli stats   --connect ADDR [--format table|json|prom]
//       query a running shard server (muffin_cli serve --listen) for its
//       authoritative stats over the Stats RPC: engine counters, memo
//       size, server-measured latency, and the server process's full
//       metrics registry (including serve.model_version and
//       serve.swaps_total). `table` is a human
//       summary; `json`/`prom` dump the server's registry exposition
//       verbatim.
//   muffin_cli reload  --connect ADDR --artifact FILE
//       hot-swap a running shard server's model over the Reload RPC: the
//       server maps the head artifact at FILE (a path on the SERVER'S
//       filesystem) and publishes it with zero downtime — in-flight
//       requests finish on the old version, later ones score on the new.
//       Prints the installed model version. A server with a --listen
//       socket also reloads its --artifact in place on SIGHUP.
//
// serve and route also accept --max-queue N (bound the engine admission
// queue; excess submits are shed and counted: serve's table has a shed
// row, route prints shed= on its resilience line) and
// --deadline-ms D (drop requests that waited longer than D before
// scoring; drops are counted the same way, in serve's deadline drops row
// and route's deadline_drops=). serve --listen rejects both: a shard
// server scores each frame as it is read, so nothing queues. All three
// accept --stats-every-s N: print a one-line
// serving summary (requests, rate, batches, memo hits, failures) from
// the process-wide metrics registry every N seconds while the trace —
// or a --listen server — runs.
//
// Serving concurrency note: engine batches run on the process-wide
// shared worker pool, sized by the MUFFIN_THREADS environment variable
// (default: hardware concurrency).
//
// Exit code 0 on success; errors are reported with context on stderr.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "baselines/single_attribute.h"
#include "common/error.h"
#include "common/socket.h"
#include "common/table.h"
#include "core/head_trainer.h"
#include "core/search.h"
#include "data/generators.h"
#include "data/serialize.h"
#include "fairness/metrics.h"
#include "models/pool.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/router.h"
#include "serve/rpc/server.h"
#include "serve/rpc/wire.h"

using namespace muffin;

namespace {

struct CliOptions {
  std::string command;
  std::string dataset = "isic";
  std::string model;
  std::string base;
  std::string attribute = "age";
  std::string csv_path;
  std::string listen;           // serve: become a shard server on this addr
  std::string remote;           // route: comma-separated shard endpoints
  std::string connect;          // stats: shard-server endpoint to query
  std::string format = "table"; // stats: table | json | prom
  std::string artifact;         // serve: binary model artifact to map/write
  std::size_t samples = 0;  // 0 = dataset default
  std::size_t episodes = 120;
  std::size_t pairs = 2;
  std::size_t batch = 32;
  std::size_t requests = 20000;
  std::size_t shards = 4;
  std::size_t probe_ms = 250;   // health-probe period for remote shards
  std::size_t fail_after = 3;   // consecutive failures before auto-drain
  std::size_t stats_every_s = 0;  // serve/route: summary period (0 = off)
  std::size_t retry = 1;        // route: submit attempts per request
  std::size_t max_queue = 0;    // serve/route: engine admission bound
  std::size_t deadline_ms = 0;  // serve/route: queueing deadline (0 = off)
};

std::vector<std::string> split_csv_list(const std::string& list) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string item = list.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) items.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

CliOptions parse(int argc, char** argv) {
  MUFFIN_REQUIRE(
      argc >= 2,
      "usage: muffin_cli <audit|seesaw|search|serve|route|stats|reload> "
      "[...]");
  CliOptions options;
  options.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--dataset") {
      options.dataset = value;
    } else if (key == "--model") {
      options.model = value;
    } else if (key == "--base") {
      options.base = value;
    } else if (key == "--attribute") {
      options.attribute = value;
    } else if (key == "--csv") {
      options.csv_path = value;
    } else if (key == "--samples") {
      options.samples = static_cast<std::size_t>(std::stoull(value));
    } else if (key == "--episodes") {
      options.episodes = static_cast<std::size_t>(std::stoull(value));
    } else if (key == "--pairs") {
      options.pairs = static_cast<std::size_t>(std::stoull(value));
    } else if (key == "--batch") {
      options.batch = static_cast<std::size_t>(std::stoull(value));
    } else if (key == "--requests") {
      options.requests = static_cast<std::size_t>(std::stoull(value));
    } else if (key == "--shards") {
      options.shards = static_cast<std::size_t>(std::stoull(value));
    } else if (key == "--listen") {
      options.listen = value;
    } else if (key == "--remote") {
      options.remote = value;
    } else if (key == "--connect") {
      options.connect = value;
    } else if (key == "--format") {
      options.format = value;
    } else if (key == "--artifact") {
      options.artifact = value;
    } else if (key == "--stats-every-s") {
      options.stats_every_s = static_cast<std::size_t>(std::stoull(value));
    } else if (key == "--probe-ms") {
      options.probe_ms = static_cast<std::size_t>(std::stoull(value));
    } else if (key == "--fail-after") {
      options.fail_after = static_cast<std::size_t>(std::stoull(value));
    } else if (key == "--retry") {
      options.retry = static_cast<std::size_t>(std::stoull(value));
    } else if (key == "--max-queue") {
      options.max_queue = static_cast<std::size_t>(std::stoull(value));
    } else if (key == "--deadline-ms") {
      options.deadline_ms = static_cast<std::size_t>(std::stoull(value));
    } else {
      throw Error("unknown option: " + key);
    }
  }
  return options;
}

struct Workbench {
  data::Dataset full;
  data::Dataset train;
  data::Dataset validation;
  models::ModelPool pool;
  std::vector<std::string> unfair_attributes;
};

Workbench make_workbench(const CliOptions& options) {
  const bool isic = options.dataset == "isic";
  MUFFIN_REQUIRE(isic || options.dataset == "fitzpatrick",
                 "--dataset must be isic or fitzpatrick");
  Workbench bench{
      isic ? data::synthetic_isic2019(options.samples ? options.samples
                                                      : 25331)
           : data::synthetic_fitzpatrick17k(options.samples ? options.samples
                                                            : 16577),
      {}, {}, {}, {}};
  SplitRng rng(99);
  const data::SplitIndices split = bench.full.split(0.64, 0.16, rng);
  bench.train = bench.full.subset(split.train, ":train");
  bench.validation = bench.full.subset(split.validation, ":val");
  bench.pool = isic ? models::calibrated_isic_pool(bench.full)
                    : models::calibrated_fitzpatrick_pool(bench.full);
  bench.unfair_attributes =
      isic ? std::vector<std::string>{"age", "site"}
           : std::vector<std::string>{"skin_tone", "type"};
  return bench;
}

int run_audit(const CliOptions& options) {
  const Workbench bench = make_workbench(options);
  std::vector<std::string> header = {"model", "params", "accuracy"};
  for (const auto& attr : bench.full.schema()) {
    header.push_back("U(" + attr.name + ")");
  }
  TextTable table(header);
  for (std::size_t m = 0; m < bench.pool.size(); ++m) {
    const models::Model& model = bench.pool.at(m);
    const auto report = fairness::evaluate_model(model, bench.full);
    std::vector<std::string> row = {
        model.name(), std::to_string(model.parameter_count()),
        format_percent(report.accuracy)};
    for (const auto& attr : bench.full.schema()) {
      row.push_back(format_fixed(report.unfairness_for(attr.name), 3));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  if (!options.csv_path.empty()) {
    std::ofstream out(options.csv_path);
    out << table.to_csv();
    std::cout << "wrote " << options.csv_path << "\n";
  }
  return 0;
}

int run_seesaw(const CliOptions& options) {
  const Workbench bench = make_workbench(options);
  const std::string model_name =
      options.model.empty() ? bench.pool.at(0).name() : options.model;
  const auto& model = dynamic_cast<const models::CalibratedModel&>(
      bench.pool.by_name(model_name));
  const auto before = fairness::evaluate_model(model, bench.full);

  std::vector<std::string> header = {"variant", "accuracy"};
  for (const std::string& attr : bench.unfair_attributes) {
    header.push_back("U(" + attr + ")");
  }
  TextTable table(header);
  const auto add_row = [&](const std::string& name,
                           const fairness::FairnessReport& report) {
    std::vector<std::string> row = {name, format_percent(report.accuracy)};
    for (const std::string& attr : bench.unfair_attributes) {
      row.push_back(format_fixed(report.unfairness_for(attr), 3));
    }
    table.add_row(std::move(row));
  };
  add_row("vanilla", before);
  for (const baselines::Method method :
       {baselines::Method::DataBalance, baselines::Method::FairLoss}) {
    const auto optimized = baselines::optimize_calibrated(
        model, bench.full, options.attribute, method);
    add_row(baselines::to_string(method) + "(" + options.attribute + ")",
            fairness::evaluate_model(*optimized, bench.full));
  }
  std::cout << "seesaw for " << model_name << " targeting "
            << options.attribute << ":\n";
  table.print(std::cout);
  return 0;
}

int run_search(const CliOptions& options) {
  const Workbench bench = make_workbench(options);
  rl::SearchSpace space;
  space.pool_size = bench.pool.size();
  space.paired_models = options.pairs;
  if (!options.base.empty()) {
    space.forced_models = {bench.pool.index_of(options.base)};
  }

  core::MuffinSearchConfig config;
  config.episodes = options.episodes;
  config.controller_batch = 8;
  config.reward.attributes = bench.unfair_attributes;
  config.head_train.epochs = 14;
  config.proxy.max_samples = 4000;
  config.on_episode = [&](std::size_t episode, const core::EpisodeRecord& r) {
    if ((episode + 1) % 40 == 0) {
      std::cerr << "episode " << episode + 1 << "/" << options.episodes
                << " best-so-far reward pending, last=" << r.reward << "\n";
    }
  };

  core::MuffinSearch search(bench.pool, bench.train, bench.full, space,
                            config);
  const core::SearchResult result = search.run();
  const core::EpisodeRecord& best = result.best();

  std::cout << "best structure: " << best.body_names << "  head "
            << core::FusingStructure::from_choice(best.choice,
                                                  bench.full.num_classes())
                   .head_spec.to_string()
            << "  act=" << nn::to_string(best.choice.activation) << "\n";
  std::cout << "reward " << format_fixed(best.reward, 3) << "  accuracy "
            << format_percent(best.eval_report.accuracy);
  for (const std::string& attr : bench.unfair_attributes) {
    std::cout << "  U(" << attr << ") "
              << format_fixed(best.eval_report.unfairness_for(attr), 3);
  }
  std::cout << "  params " << best.parameter_count << "\n";

  if (!options.csv_path.empty()) {
    std::vector<std::string> header = {"episode", "body", "reward",
                                       "accuracy", "params"};
    for (const std::string& attr : bench.unfair_attributes) {
      header.push_back("U_" + attr);
    }
    TextTable archive(header);
    for (std::size_t i = 0; i < result.episodes.size(); ++i) {
      const auto& episode = result.episodes[i];
      std::vector<std::string> row = {
          std::to_string(i), episode.body_names,
          format_fixed(episode.reward, 4),
          format_fixed(episode.eval_report.accuracy, 4),
          std::to_string(episode.parameter_count)};
      for (const std::string& attr : bench.unfair_attributes) {
        row.push_back(
            format_fixed(episode.eval_report.unfairness_for(attr), 4));
      }
      archive.add_row(std::move(row));
    }
    std::ofstream out(options.csv_path);
    out << archive.to_csv();
    std::cout << "wrote episode archive to " << options.csv_path << "\n";
  }
  return 0;
}

/// Fuse a default two-model muffin: first two pool architectures, the
/// paper's [.,18,12,.] head, trained on the train split.
std::shared_ptr<core::FusedModel> fuse_default(const Workbench& bench) {
  rl::StructureChoice choice;
  choice.model_indices = {0, 1};
  choice.hidden_dims = {18, 12};
  choice.activation = nn::Activation::Relu;
  const core::FusingStructure structure = core::FusingStructure::from_choice(
      choice, bench.full.num_classes());
  const core::ScoreCache cache(bench.pool, bench.train);
  const core::ProxyDataset proxy = core::build_proxy(bench.train);
  core::HeadTrainConfig head_config;
  head_config.epochs = 10;
  nn::Mlp head =
      core::train_head(cache, bench.train, proxy, structure, head_config);
  return std::make_shared<core::FusedModel>(
      bench.pool.at(0).name() + "+" + bench.pool.at(1).name(),
      std::vector<models::ModelPtr>{bench.pool.share(0), bench.pool.share(1)},
      std::move(head));
}

/// serve's model source: with --artifact, an existing file is mmap'd and
/// the head borrows its weights zero-copy (no head training on the shard
/// cold-start path); a missing file is written after training so the
/// next start maps it. Without --artifact, always train. A stamped
/// artifact's model version is written through `model_version` (0 when
/// unstamped or trained fresh) so the serving registry starts at the
/// artifact's version instead of 1.
std::shared_ptr<core::FusedModel> fused_for_serving(
    const Workbench& bench, const CliOptions& options,
    std::uint64_t& model_version) {
  model_version = 0;
  if (options.artifact.empty()) return fuse_default(bench);
  if (std::ifstream(options.artifact).good()) {
    const data::Artifact artifact =
        data::Artifact::map_file(options.artifact);
    model_version = artifact.model_version();
    std::cout << "mapped model artifact " << options.artifact << " ("
              << artifact.byte_size() << " bytes, model version "
              << model_version << ", zero-copy)\n";
    return std::make_shared<core::FusedModel>(
        bench.pool.at(0).name() + "+" + bench.pool.at(1).name(),
        std::vector<models::ModelPtr>{bench.pool.share(0),
                                      bench.pool.share(1)},
        nn::Mlp::map_artifact(artifact, "head"));
  }
  std::shared_ptr<core::FusedModel> fused = fuse_default(bench);
  data::ArtifactWriter writer;
  fused->head().save_artifact(writer, "head");
  writer.write_file(options.artifact);
  std::cout << "wrote model artifact " << options.artifact << "\n";
  return fused;
}

std::atomic<bool> g_stop_requested{false};
std::atomic<bool> g_drain_requested{false};
std::atomic<bool> g_reload_requested{false};

void request_stop(int) { g_stop_requested.store(true); }

/// SIGTERM, the orchestrator's "please go away": drain instead of drop.
void request_drain(int) {
  g_drain_requested.store(true);
  g_stop_requested.store(true);
}

/// SIGHUP, the classic "re-read your config": hot-swap the --artifact.
void request_reload(int) { g_reload_requested.store(true); }

/// --stats-every-s: a background thread that prints a one-line serving
/// summary from the process-wide metrics registry every interval. The
/// line is built from whichever counters are live in this process —
/// engine.requests for in-process serving, router.routed when this
/// process only routes to remote shards — so the same ticker works for
/// serve, serve --listen and route.
class StatsTicker {
 public:
  ~StatsTicker() { stop(); }

  void start(std::size_t every_s) {
    if (every_s == 0) return;
    every_ = std::chrono::seconds(every_s);
    thread_ = std::thread([this]() { loop(); });
  }

  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopped_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void loop() {
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t last_requests = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (wake_.wait_for(lock, every_, [this]() { return stopped_; })) {
          return;
        }
      }
      const obs::MetricsSnapshot snap = obs::registry().snapshot();
      const std::uint64_t requests =
          std::max(snap.counter_value("engine.requests"),
                   snap.counter_value("router.routed"));
      const std::uint64_t hits = snap.counter_value("engine.cache_hits");
      const std::uint64_t misses = snap.counter_value("engine.cache_misses");
      const std::uint64_t failures =
          snap.counter_value("router.submit_failures") +
          snap.counter_value("rpc.client.request_failures");
      const auto elapsed = std::chrono::duration<double>(
          std::chrono::steady_clock::now() - start);
      const double rate =
          static_cast<double>(requests - last_requests) /
          std::chrono::duration<double>(every_).count();
      std::ostringstream line;
      line << "[stats t=" << static_cast<long long>(elapsed.count()) << "s]"
           << " requests=" << requests << " (" << format_fixed(rate, 1)
           << "/s)"
           << " batches=" << snap.counter_value("engine.batches");
      if (hits + misses > 0) {
        line << " memo_hit="
             << format_percent(static_cast<double>(hits) /
                               static_cast<double>(hits + misses));
      }
      if (failures > 0) line << " failures=" << failures;
      line << "\n";
      // One write so ticker lines never interleave with table output.
      std::cerr << line.str() << std::flush;
      last_requests = requests;
    }
  }

  std::chrono::seconds every_{0};
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopped_ = false;
  std::thread thread_;
};

/// Percentile `q` of the engine.latency_us histogram in `metrics`.
double latency_us(const obs::MetricsSnapshot& metrics, double q) {
  const obs::HistogramSnapshot* latency =
      metrics.find_histogram("engine.latency_us");
  return latency != nullptr ? latency->percentile(q) : 0.0;
}

/// Requests per second over a trace that took `seconds` of wall time.
std::string rate(std::uint64_t requests, double seconds) {
  return std::to_string(static_cast<long long>(
      seconds > 0.0 ? static_cast<double>(requests) / seconds : 0.0));
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// stats subcommand: one Stats RPC round trip against a live shard
/// server, printing the SERVER'S authoritative accounting (not anything
/// this client observed).
int run_stats(const CliOptions& options) {
  MUFFIN_REQUIRE(!options.connect.empty(),
                 "stats requires --connect host:port (or unix:/path)");
  MUFFIN_REQUIRE(options.format == "table" || options.format == "json" ||
                     options.format == "prom",
                 "--format must be table, json or prom");
  common::Socket socket = common::connect_endpoint(
      common::Endpoint::parse(options.connect), /*timeout_ms=*/2000);
  serve::rpc::write_frame(socket, serve::rpc::encode_stats_request(/*seq=*/1),
                          /*timeout_ms=*/2000);
  const std::optional<serve::rpc::Frame> frame = serve::rpc::read_frame(
      socket, serve::rpc::kDefaultMaxFrameBytes, /*timeout_ms=*/5000);
  MUFFIN_REQUIRE(frame.has_value(),
                 "server closed the connection without answering the stats "
                 "request (does it predate the Stats op?)");
  if (frame->header.type == serve::rpc::MsgType::Error) {
    throw Error("server error: " + serve::rpc::decode_error(frame->payload));
  }
  MUFFIN_REQUIRE(
      frame->header.type == serve::rpc::MsgType::StatsResponse &&
          frame->header.seq == 1,
      "unexpected reply to the stats request");
  const serve::StatsReport report =
      serve::rpc::decode_stats_response(frame->payload);

  const obs::MetricsSnapshot& process = report.process;
  if (options.format == "json") {
    std::cout << process.to_json() << "\n";
    return 0;
  }
  if (options.format == "prom") {
    std::cout << process.to_prometheus();
    return 0;
  }

  // Table: the engine rows come from the server engine's own registry.
  // The registry keeps no start time, so there is no throughput row, and
  // max latency is the histogram's 100th percentile (within 1%).
  const obs::MetricsSnapshot& engine = report.engine;
  const obs::HistogramSnapshot* latency =
      engine.find_histogram("engine.latency_us");
  std::cout << "authoritative stats for " << options.connect << ":\n";
  TextTable table({"metric", "value"});
  table.add_row({"model version",
                 std::to_string(process.gauge_value("serve.model_version"))});
  table.add_row({"model swaps",
                 std::to_string(process.counter_value("serve.swaps_total"))});
  for (const auto& [row, name] :
       {std::pair{"requests", "engine.requests"},
        std::pair{"batches", "engine.batches"},
        std::pair{"cache hits", "engine.cache_hits"},
        std::pair{"consensus short-circuits",
                  "engine.consensus_short_circuits"},
        std::pair{"head evaluations", "engine.head_evaluations"}}) {
    table.add_row({row, std::to_string(engine.counter_value(name))});
  }
  table.add_row({"memo entries", std::to_string(report.cache_entries)});
  table.add_row({"mean latency (us)",
                 format_fixed(latency != nullptr ? latency->mean() : 0.0, 0)});
  table.add_row({"p50 latency (us)", format_fixed(latency_us(engine, 50), 0)});
  table.add_row({"p95 latency (us)", format_fixed(latency_us(engine, 95), 0)});
  table.add_row({"p99 latency (us)", format_fixed(latency_us(engine, 99), 0)});
  table.add_row({"max latency (us)", format_fixed(latency_us(engine, 100), 0)});
  table.print(std::cout);

  if (!process.counters.empty()) {
    std::cout << "\nserver registry (" << process.counters.size()
              << " counters, " << process.gauges.size() << " gauges, "
              << process.histograms.size() << " histograms):\n";
    TextTable registry({"counter", "value"});
    for (const obs::CounterSnapshot& entry : process.counters) {
      registry.add_row({entry.name, std::to_string(entry.value)});
    }
    for (const obs::GaugeSnapshot& entry : process.gauges) {
      registry.add_row({entry.name + " (gauge)",
                        std::to_string(entry.value)});
    }
    for (const obs::HistogramSnapshot& entry : process.histograms) {
      registry.add_row({entry.name + " (histogram)",
                        std::to_string(entry.count) + " obs, mean " +
                            format_fixed(entry.mean(), 1)});
    }
    registry.print(std::cout);
  }
  return 0;
}

/// reload subcommand: one Reload RPC round trip against a live shard
/// server — zero-downtime model rollout from the command line.
int run_reload(const CliOptions& options) {
  MUFFIN_REQUIRE(!options.connect.empty(),
                 "reload requires --connect host:port (or unix:/path)");
  MUFFIN_REQUIRE(!options.artifact.empty(),
                 "reload requires --artifact FILE (a path readable by the "
                 "SERVER process)");
  common::Socket socket = common::connect_endpoint(
      common::Endpoint::parse(options.connect), /*timeout_ms=*/2000);
  serve::rpc::write_frame(
      socket, serve::rpc::encode_reload(/*seq=*/1, options.artifact),
      /*timeout_ms=*/2000);
  const std::optional<serve::rpc::Frame> frame = serve::rpc::read_frame(
      socket, serve::rpc::kDefaultMaxFrameBytes, /*timeout_ms=*/10000);
  MUFFIN_REQUIRE(frame.has_value(),
                 "server closed the connection without answering the reload "
                 "request (does it predate the Reload op?)");
  if (frame->header.type == serve::rpc::MsgType::Error) {
    throw Error("server refused the reload: " +
                serve::rpc::decode_error(frame->payload));
  }
  MUFFIN_REQUIRE(
      frame->header.type == serve::rpc::MsgType::ReloadAck &&
          frame->header.seq == 1,
      "unexpected reply to the reload request");
  std::cout << options.connect << " now serves model version "
            << serve::rpc::decode_reload_ack(frame->payload) << "\n";
  return 0;
}

/// Shard-server mode: this process is one shard of the cross-process
/// tier. Serves the batched wire format on the socket until signalled.
int run_listen(const CliOptions& options,
               std::shared_ptr<core::FusedModel> fused,
               std::uint64_t artifact_version) {
  serve::rpc::ShardServerConfig server_config;
  if (artifact_version > 0) {
    server_config.initial_model_version = artifact_version;
  }
  serve::rpc::ShardServer server(std::move(fused), options.listen,
                                 server_config);
  // The resolved address (real port for port-0 binds) goes to stdout and
  // is flushed immediately so launcher scripts can wait for readiness.
  std::cout << "listening on " << server.address() << std::endl;
  std::signal(SIGINT, request_stop);
  std::signal(SIGTERM, request_drain);
  if (!options.artifact.empty()) std::signal(SIGHUP, request_reload);
  StatsTicker ticker;
  ticker.start(options.stats_every_s);
  while (!g_stop_requested.load()) {
    if (g_reload_requested.exchange(false)) {
      // In-place rollout: re-map the --artifact and publish it. Failure
      // (missing/corrupt file, non-advancing version) leaves the serving
      // model untouched — report and keep serving.
      try {
        const std::uint64_t installed = server.reload(options.artifact);
        std::cout << "reloaded " << options.artifact << " as model version "
                  << installed << std::endl;
      } catch (const std::exception& error) {
        std::cerr << "reload failed: " << error.what() << "\n";
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ticker.stop();
  if (g_drain_requested.load()) {
    // Graceful path: no new connections, every frame clients already
    // sent is answered before the sockets close, exit 0. A client that
    // got its requests on the wire never sees this shard die.
    server.drain(std::chrono::milliseconds(5000));
    std::cout << "drained cleanly: served "
              << server.engine().metrics().counter_value("engine.requests")
              << " requests over " << server.connections_accepted()
              << " connections\n";
    return 0;
  }
  std::cout << "stopping: served "
            << server.engine().metrics().counter_value("engine.requests")
            << " requests over " << server.connections_accepted()
            << " connections\n";
  server.stop();
  return 0;
}

int run_serve(const CliOptions& options) {
  MUFFIN_REQUIRE(options.batch > 0, "--batch must be positive");
  MUFFIN_REQUIRE(options.requests > 0, "--requests must be positive");
  MUFFIN_REQUIRE(options.listen.empty() ||
                     (options.max_queue == 0 && options.deadline_ms == 0),
                 "serve --listen takes no --max-queue or --deadline-ms: a "
                 "shard server scores each request frame as it is read, so "
                 "no request queues to be bounded or to time out");
  const Workbench bench = make_workbench(options);
  std::uint64_t artifact_version = 0;
  std::shared_ptr<core::FusedModel> fused =
      fused_for_serving(bench, options, artifact_version);
  if (!options.listen.empty()) {
    return run_listen(options, std::move(fused), artifact_version);
  }
  std::cout << "serving " << fused->name() << " ("
            << fused->parameter_count() << " params)\n";

  serve::EngineConfig engine_config;
  engine_config.max_batch = options.batch;
  engine_config.max_queue = options.max_queue;
  engine_config.deadline = std::chrono::milliseconds(options.deadline_ms);
  serve::InferenceEngine engine(fused, engine_config);

  // Steady-state trace: uniform-with-replacement draws over the validation
  // split, submitted as fast as the engine accepts them.
  const data::Dataset& pool_split = bench.validation;
  SplitRng trace_rng(4242);
  StatsTicker ticker;
  ticker.start(options.stats_every_s);
  std::vector<std::future<serve::Prediction>> futures;
  futures.reserve(options.requests);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < options.requests; ++i) {
    const data::Record& record =
        pool_split.record(trace_rng.index(pool_split.size()));
    try {
      futures.push_back(engine.submit(record));
    } catch (const Overloaded&) {
      // --max-queue reached: dropped, and counted in the shed row below.
    }
  }
  for (auto& future : futures) {
    try {
      (void)future.get();
    } catch (const DeadlineExceeded&) {
      // --deadline-ms passed in the queue: dropped unscored, and counted
      // in the deadline drops row below.
    }
  }
  const double seconds = seconds_since(start);
  ticker.stop();
  engine.shutdown();

  // Throughput is over the trace's wall time, first submit to last reply.
  const obs::MetricsSnapshot metrics = engine.metrics();
  const std::uint64_t requests = metrics.counter_value("engine.requests");
  TextTable table({"metric", "value"});
  table.add_row({"requests", std::to_string(requests)});
  table.add_row({"throughput (req/s)", rate(requests, seconds)});
  table.add_row({"p50 latency (us)", format_fixed(latency_us(metrics, 50), 0)});
  table.add_row({"p95 latency (us)", format_fixed(latency_us(metrics, 95), 0)});
  table.add_row({"p99 latency (us)", format_fixed(latency_us(metrics, 99), 0)});
  for (const auto& [row, name] :
       {std::pair{"batches", "engine.batches"},
        std::pair{"consensus short-circuits",
                  "engine.consensus_short_circuits"},
        std::pair{"head evaluations", "engine.head_evaluations"},
        std::pair{"cache hits", "engine.cache_hits"},
        std::pair{"shed", "serve.shed"},
        std::pair{"deadline drops", "serve.deadline_drops"}}) {
    table.add_row({row, std::to_string(metrics.counter_value(name))});
  }
  table.print(std::cout);
  return 0;
}

int run_route(const CliOptions& options) {
  const std::vector<std::string> remotes = split_csv_list(options.remote);
  MUFFIN_REQUIRE(!remotes.empty() || options.shards > 0,
                 "--shards must be positive (or pass --remote endpoints)");
  MUFFIN_REQUIRE(options.batch > 0, "--batch must be positive");
  MUFFIN_REQUIRE(options.requests > 0, "--requests must be positive");
  const Workbench bench = make_workbench(options);

  serve::RouterConfig router_config;
  router_config.engine.max_batch = options.batch;
  router_config.engine.max_queue = options.max_queue;
  router_config.engine.deadline = std::chrono::milliseconds(options.deadline_ms);
  router_config.retry.max_attempts = std::max<std::size_t>(1, options.retry);
  std::shared_ptr<core::FusedModel> fused;
  if (remotes.empty()) {
    // In-process tier: local engine replicas need the fused model.
    fused = fuse_default(bench);
    router_config.shards = options.shards;
  } else {
    // Cross-process tier: the shard servers own the model; this process
    // only routes, so it skips head training entirely.
    router_config.shards = 0;
    router_config.remote_endpoints = remotes;
    router_config.remote.max_batch = options.batch;
    router_config.health.probe_interval =
        std::chrono::milliseconds(options.probe_ms);
    router_config.health.failure_threshold = options.fail_after;
  }
  serve::ShardRouter router(fused, router_config);
  if (remotes.empty()) {
    std::cout << "routing " << fused->name() << " across "
              << options.shards << " in-process shards ("
              << router_config.virtual_nodes << " virtual nodes per shard)\n";
  } else {
    std::cout << "routing across " << remotes.size()
              << " remote shards (probe every " << options.probe_ms
              << " ms, auto-drain after " << options.fail_after
              << " failures)\n";
  }

  // Same steady-state trace as `serve`, so the two subcommands are
  // directly comparable.
  const data::Dataset& pool_split = bench.validation;
  SplitRng trace_rng(4242);
  StatsTicker ticker;
  ticker.start(options.stats_every_s);
  std::vector<std::future<serve::Prediction>> futures;
  futures.reserve(options.requests);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < options.requests; ++i) {
    const data::Record& record =
        pool_split.record(trace_rng.index(pool_split.size()));
    try {
      futures.push_back(router.submit(record));
    } catch (const Overloaded&) {
      // --max-queue reached: dropped, and counted in the shed= line below.
    }
  }
  for (auto& future : futures) {
    try {
      (void)future.get();
    } catch (const Overloaded&) {
      // A retry shed by a full replica: counted like a submit-time shed.
    } catch (const DeadlineExceeded&) {
      // --deadline-ms passed in a replica's queue: dropped unscored, and
      // counted in deadline_drops= below.
    }
  }
  const double seconds = seconds_since(start);
  ticker.stop();

  const obs::MetricsSnapshot merged = router.aggregate_metrics();
  const std::uint64_t requests = merged.counter_value("engine.requests");
  const std::uint64_t hits = merged.counter_value("engine.cache_hits");
  TextTable aggregate({"aggregate metric", "value"});
  aggregate.add_row({"requests", std::to_string(requests)});
  aggregate.add_row({"throughput (req/s)", rate(requests, seconds)});
  aggregate.add_row(
      {"p50 latency (us)", format_fixed(latency_us(merged, 50), 0)});
  aggregate.add_row(
      {"p95 latency (us)", format_fixed(latency_us(merged, 95), 0)});
  aggregate.add_row(
      {"p99 latency (us)", format_fixed(latency_us(merged, 99), 0)});
  aggregate.add_row(
      {"consensus short-circuits",
       std::to_string(merged.counter_value("engine.consensus_short_circuits"))});
  aggregate.add_row({"cache hits", std::to_string(hits)});
  aggregate.add_row(
      {"memo hit rate",
       format_percent(requests > 0 ? static_cast<double>(hits) /
                                         static_cast<double>(requests)
                                   : 0.0)});
  aggregate.print(std::cout);
  std::cout << "\n";

  TextTable per_shard({"shard", "backend", "state", "routed", "memo entries",
                       "cache hits", "p50us", "p99us"});
  for (const serve::ShardInfo& info : router.shard_infos()) {
    const std::string state =
        !info.alive ? "removed"
                    : (info.active ? "active"
                                   : (info.auto_drained ? "auto-drained"
                                                        : "drained"));
    per_shard.add_row(
        {std::to_string(info.shard), info.backend, state,
         std::to_string(info.routed), std::to_string(info.cache_entries),
         std::to_string(info.metrics.counter_value("engine.cache_hits")),
         format_fixed(latency_us(info.metrics, 50), 0),
         format_fixed(latency_us(info.metrics, 99), 0)});
  }
  per_shard.print(std::cout);
  // Resilience accounting lives in THIS process's registry (retries and
  // failovers are router-side decisions; sheds can also come back over
  // the wire), so print it here rather than per shard.
  {
    const obs::MetricsSnapshot snap = obs::registry().snapshot();
    std::cout << "resilience: retries=" << snap.counter_value("serve.retries")
              << " failovers=" << snap.counter_value("serve.failovers")
              << " shed=" << snap.counter_value("serve.shed")
              << " deadline_drops=" << snap.counter_value("serve.deadline_drops")
              << " reconnects=" << snap.counter_value("rpc.client.reconnects")
              << "\n";
  }
  router.shutdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliOptions options = parse(argc, argv);
    if (options.command == "audit") return run_audit(options);
    if (options.command == "seesaw") return run_seesaw(options);
    if (options.command == "search") return run_search(options);
    if (options.command == "serve") return run_serve(options);
    if (options.command == "route") return run_route(options);
    if (options.command == "stats") return run_stats(options);
    if (options.command == "reload") return run_reload(options);
    throw Error("unknown command '" + options.command +
                "' (expected audit, seesaw, search, serve, route, stats or "
                "reload)");
  } catch (const std::exception& error) {
    std::cerr << "muffin_cli: " << error.what() << "\n";
    return 1;
  }
}
