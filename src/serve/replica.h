// One shard replica as the router sees it.
//
// The ShardRouter routes by consistent hash and must not care where a
// replica lives: in this process (an InferenceEngine) or across a socket
// (an rpc::RemoteShard talking to a ShardServer). ReplicaBackend is that
// seam — the submit/health/stats surface both kinds share. The router
// owns topology (ring membership, drain state, routed counters); the
// backend owns transport and scoring.
//
// Stats semantics differ by locality and are part of the contract. Both
// kinds report a metrics snapshot under the engine's names
// (engine.requests, engine.latency_us, ...), so the router merges them
// by name:
//  * A local replica reports its engine's own registry.
//  * A remote replica reports *client-observed* accounting: round-trip
//    latency as measured by this process, counters reconstructed from
//    the response flags (cached/consensus per prediction). The remote
//    server's engine keeps its own authoritative numbers in its own
//    process. cache_entries()/cache_contains() are unknowable across the
//    wire and report 0/false.
//  * probe() is the health check the router's monitor thread calls:
//    local replicas are healthy while running; remote replicas send an
//    EMPTY score request through the server's full request path (not a
//    bare liveness ping — a process that is alive but can no longer
//    serve must fail its probe) with a deadline. consecutive_failures()
//    counts failed submits/requests since the last success (always 0
//    locally), so the monitor can drain a shard whose requests time out
//    even when its probe still answers; probes never reset the count —
//    only the router's restore (reset_failures) does.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>

#include "obs/metrics.h"
#include "serve/engine.h"

namespace muffin::serve {

/// Server-authoritative accounting for one replica, as shipped by the
/// Stats RPC (serve/rpc/wire.h): the serving engine's memo size and its
/// own registry snapshot (counters and latency histogram, which merge
/// exactly across replicas), and — when the report crosses a process
/// boundary — the server process's registry snapshot. In-process
/// replicas leave `process` empty: every local replica would ship the
/// same duplicate copy; callers snapshot obs::registry() once themselves.
struct StatsReport {
  std::size_t cache_entries = 0;
  obs::MetricsSnapshot engine;
  obs::MetricsSnapshot process;
};

class ReplicaBackend {
 public:
  virtual ~ReplicaBackend() = default;

  /// Enqueue one record; the future completes (value or exception) when
  /// the replica has an answer. Throws only if the backend is shut down.
  [[nodiscard]] virtual std::future<Prediction> submit(
      const data::Record& record) = 0;

  /// Stop the backend (idempotent); in-flight work completes or fails.
  virtual void shutdown() = 0;

  /// Liveness: true if the replica can currently serve. May block up to
  /// the backend's probe deadline; called off the router's locks.
  [[nodiscard]] virtual bool probe() = 0;

  /// Consecutive failed requests since the last success (remote only).
  [[nodiscard]] virtual std::size_t consecutive_failures() const {
    return 0;
  }

  /// Clear the failure history — called by the router when it restores
  /// a drained replica, so the restored shard starts with a clean slate.
  virtual void reset_failures() {}

  [[nodiscard]] virtual bool remote() const = 0;
  /// Human-readable placement ("local" or the endpoint).
  [[nodiscard]] virtual std::string describe() const = 0;

  /// This replica's accounting as seen from this process (see above).
  [[nodiscard]] virtual obs::MetricsSnapshot metrics() const = 0;
  [[nodiscard]] virtual std::size_t cache_entries() const = 0;
  [[nodiscard]] virtual bool cache_contains(std::uint64_t uid) const = 0;

  /// Authoritative accounting, as opposed to the client-observed
  /// metrics() above: local replicas answer from their own
  /// engine; remote replicas fetch the *server's* stats over the Stats
  /// RPC (so latency is what the server measured, counters include
  /// traffic from every client of that server). May block on the network
  /// for remote replicas; returns nullopt when the fetch fails, and the
  /// caller falls back to client-observed accounting.
  [[nodiscard]] virtual std::optional<StatsReport> authoritative_stats() = 0;

  /// Hot-swap the replica's model to the head artifact at
  /// `artifact_path` and return the installed model version. For a local
  /// replica the path is read by this process; for a remote replica it
  /// names a file on the *server's* filesystem and travels over the
  /// Reload RPC. Serving never pauses either way — in-flight batches
  /// finish on the version they pinned. Throws muffin::Error when the
  /// artifact cannot be loaded or its stamped version does not advance
  /// the replica's registry.
  [[nodiscard]] virtual std::uint64_t reload(
      const std::string& artifact_path) = 0;

  /// The wrapped engine for in-process replicas; nullptr for remote.
  [[nodiscard]] virtual const InferenceEngine* engine() const {
    return nullptr;
  }
};

/// In-process replica: owns an InferenceEngine and forwards verbatim.
class LocalReplica final : public ReplicaBackend {
 public:
  LocalReplica(std::shared_ptr<const core::FusedModel> model,
               const EngineConfig& config)
      : engine_(std::move(model), config) {}

  [[nodiscard]] std::future<Prediction> submit(
      const data::Record& record) override {
    return engine_.submit(record);
  }
  void shutdown() override {
    stopped_ = true;
    engine_.shutdown();
  }
  [[nodiscard]] bool probe() override { return !stopped_; }
  [[nodiscard]] bool remote() const override { return false; }
  [[nodiscard]] std::string describe() const override { return "local"; }
  [[nodiscard]] obs::MetricsSnapshot metrics() const override {
    return engine_.metrics();
  }
  [[nodiscard]] std::size_t cache_entries() const override {
    return engine_.cache_entries();
  }
  [[nodiscard]] bool cache_contains(std::uint64_t uid) const override {
    return engine_.cache_contains(uid);
  }
  [[nodiscard]] std::optional<StatsReport> authoritative_stats() override {
    StatsReport report;
    report.cache_entries = engine_.cache_entries();
    report.engine = engine_.metrics();
    return report;  // process stays empty: same process, same registry
  }
  [[nodiscard]] std::uint64_t reload(
      const std::string& artifact_path) override {
    return reload_head_artifact(engine_, artifact_path);
  }
  [[nodiscard]] const InferenceEngine* engine() const override {
    return &engine_;
  }

 private:
  InferenceEngine engine_;
  std::atomic<bool> stopped_{false};
};

}  // namespace muffin::serve
