// Sharded serving tier: consistent-hash routing over replicas that may
// live in this process or behind a socket.
//
// One InferenceEngine batches and memoizes on a single host's worth of
// cores; ShardRouter partitions traffic across N replicas behind the
// same predict/predict_async surface and routes every request by
// consistent hash on the record uid (muffin::HashRing, virtual nodes on
// a 64-bit ring). Routing by uid is what makes sharding composable with
// the engine's result memo: a repeated uid always lands on the shard
// whose LRU already holds its prediction.
//
// A replica is a ReplicaBackend (serve/replica.h): in-process
// (LocalReplica owning an engine) or remote (rpc::RemoteShard speaking
// the batched wire format to a ShardServer in another process). The
// router treats both identically — placement, drain state and routed
// accounting live here; transport and scoring live in the backend.
//
// Topology is dynamic:
//  * add_replica() / add_remote_replica(endpoint) join the ring; only
//    the uids adjacent to the new points move.
//  * drain(shard) takes a replica off the ring without stopping it —
//    the degraded-mode path; restore(shard) puts it back.
//  * remove_replica(shard) permanently retires a replica. Its stats
//    FREEZE AT REMOVAL: the router snapshots its metrics and memo size
//    before shutting the backend down and destroys the backend; every
//    aggregate and shard_infos() view reports the frozen snapshot from
//    then on. One rule, shared by operator removal and remote shards
//    that die — removed replicas are never poked again.
//
// Health-checked auto-drain: when any remote replica exists (and
// HealthConfig::probe_interval is non-zero), a monitor thread probes the
// remote replicas off the locks. A probe is an end-to-end canary (an
// empty score request through the server's full request path), so a
// process that is alive but can no longer serve fails it. A replica
// that fails `failure_threshold` consecutive probes — or whose backend
// reports that many consecutive failed/timed-out submits — is drained
// automatically (taken off the ring; traffic reroutes to ring
// successors), unless it is the last active replica. An auto-drained
// replica is restored after `recovery_threshold` consecutive successful
// probes (hysteresis against flapping); restoring clears the backend's
// failure history. Operator drains are never auto-restored.
//
// Partial-failure rule (shared with the RPC tier): predict_batch is
// all-or-error. If a mid-loop submit throws, every already-submitted
// request is awaited (results discarded) before the error propagates, so
// no work is silently left in flight and the router can be shut down or
// resubmitted to immediately. RemoteShard applies the same rule to each
// pipelined batch; ShardServer applies it per request frame.
//
// Thread safety: submit/predict may be called from any number of client
// threads concurrently with topology changes, health transitions and
// stats aggregation. Routing takes a shared lock; topology mutation
// takes the exclusive lock.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "serve/replica.h"
#include "serve/rpc/client.h"

namespace muffin::serve {

/// Health monitoring knobs for remote replicas.
struct HealthConfig {
  /// Probe period; 0 disables the monitor thread entirely.
  std::chrono::milliseconds probe_interval{500};
  /// Consecutive probe failures (or backend-reported consecutive submit
  /// failures) that trigger auto-drain.
  std::size_t failure_threshold = 3;
  /// Restore an auto-drained replica once probes succeed again.
  bool auto_restore = true;
  /// Consecutive successful probes required before an auto-drained
  /// replica is restored — hysteresis so one lucky probe cannot bounce a
  /// flaky shard straight back onto the ring. Restoring also clears the
  /// backend's failure history (ReplicaBackend::reset_failures).
  std::size_t recovery_threshold = 2;
};

/// Retry/failover policy for failed submits.
struct RetryConfig {
  /// Total submit attempts per request; 1 disables retries (the default,
  /// keeping the hot path untouched). A retried request fails over to
  /// the next healthy replica on the ring — scoring is deterministic and
  /// the memo canonicalizes, so the retried answer is bit-identical to
  /// what the original shard would have served. muffin::Overloaded is
  /// NEVER retried: a shed is a deliberate capacity signal.
  std::size_t max_attempts = 1;
  /// Global retry budget, a token bucket shared by every request: each
  /// successful routed submit earns `budget_ratio` tokens, each retry
  /// spends one. Retries can therefore add at most ~budget_ratio of
  /// goodput in extra load — a fleet-wide outage degrades into fast
  /// failures instead of a retry storm.
  double budget_ratio = 0.1;
  /// Token-bank cap, and the initial balance (so failover works from a
  /// cold start). Sized to absorb one client-side send failure, which
  /// orphans several pipelined batches' worth of requests at once.
  std::size_t budget_burst = 128;
};

struct RouterConfig {
  /// Initial in-process replica count. May be 0 when remote_endpoints is
  /// non-empty (a pure client-side router needs no local model).
  std::size_t shards = 2;
  std::size_t virtual_nodes = 64;  ///< ring points per replica
  EngineConfig engine;             ///< applied to every local replica
  /// Remote shards ("host:port" or "unix:/path") joined at construction.
  std::vector<std::string> remote_endpoints;
  rpc::RemoteShardConfig remote;   ///< applied to every remote replica
  HealthConfig health;
  RetryConfig retry;
};

/// Point-in-time view of one shard, for operator tables and tests.
struct ShardInfo {
  std::size_t shard = 0;
  bool active = false;  ///< on the ring (receiving new traffic)
  bool alive = false;   ///< backend running (false once removed)
  bool remote = false;
  bool auto_drained = false;  ///< drained by the health monitor
  std::string backend;     ///< "local" or the remote endpoint
  std::size_t routed = 0;  ///< requests this router sent to the shard
  std::size_t cache_entries = 0;
  obs::MetricsSnapshot metrics;  ///< ReplicaBackend::metrics(), or frozen
};

struct RouterTestAccess;  // test-only backdoor (tests/serve)

class ShardRouter {
 public:
  /// `model` may be null only when no local replicas are configured
  /// (config.shards == 0 and all replicas remote).
  explicit ShardRouter(std::shared_ptr<const core::FusedModel> model,
                       RouterConfig config = {});
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Route one record to its shard; the future completes when that
  /// shard's backend scores it.
  [[nodiscard]] std::future<Prediction> submit(const data::Record& record);

  /// Synchronous single-record convenience: submit + wait.
  [[nodiscard]] Prediction predict(const data::Record& record);

  /// Submit every record, wait for all, return predictions in input
  /// order. All-or-error: a mid-loop failure awaits the submitted prefix
  /// before rethrowing (see the partial-failure rule above).
  [[nodiscard]] std::vector<Prediction> predict_batch(
      std::span<const data::Record> records);

  /// Shut every replica down (idempotent). New submissions are rejected.
  void shutdown();

  /// The shard a uid routes to right now. Throws once the router is
  /// stopped or if every replica is drained.
  [[nodiscard]] std::size_t shard_for(std::uint64_t uid) const;

  /// Add a fresh in-process replica (cold memo); returns its shard id.
  std::size_t add_replica();

  /// Add a remote replica served by a ShardServer at `endpoint`
  /// ("host:port" or "unix:/path"); returns its shard id. Starts the
  /// health monitor on first use if the interval is non-zero.
  std::size_t add_remote_replica(const std::string& endpoint);

  /// Degraded mode: stop routing new traffic to `shard` but keep its
  /// backend alive. Throws if the shard is not active or is the last
  /// active replica. Operator drains are never auto-restored.
  void drain(std::size_t shard);

  /// Put a drained replica back on the ring.
  void restore(std::size_t shard);

  /// Permanently retire `shard`: freeze its stats, shut down and destroy
  /// its backend. See the freeze-at-removal rule above.
  void remove_replica(std::size_t shard);

  /// Total replicas ever created (shard ids are stable, never reused).
  [[nodiscard]] std::size_t replica_count() const;
  /// Replicas currently on the ring.
  [[nodiscard]] std::size_t active_count() const;
  [[nodiscard]] bool active(std::size_t shard) const;
  /// The wrapped engine of an in-process replica. Throws for remote or
  /// removed shards (removed backends are destroyed at removal).
  [[nodiscard]] const InferenceEngine& replica(std::size_t shard) const;

  /// Every replica's metrics merged by name, over every replica that
  /// ever served traffic (removed replicas contribute their frozen
  /// snapshots): counters add, latency histograms add bucket by bucket.
  /// Remote replicas contribute client-observed stats (see
  /// serve/replica.h).
  [[nodiscard]] obs::MetricsSnapshot aggregate_metrics() const;
  [[nodiscard]] std::vector<ShardInfo> shard_infos() const;

  /// Authoritative fleet view, as opposed to the client-observed
  /// aggregates above: local replicas answer from their own engines;
  /// remote replicas are asked for the *server's* stats over the Stats
  /// RPC (ReplicaBackend::authoritative_stats), so their latency is what
  /// the server measured and their counters include every client of that
  /// server. Network fetches run off the router locks, like health
  /// probes. A remote replica whose fetch fails — and removed replicas —
  /// fall back to their frozen/client-observed accounting, so the report
  /// is always complete. The report's `engine` field is the merged fleet
  /// view; its `process` field is THIS process's registry snapshot
  /// (per-server registries are visible via rpc::RemoteShard::fetch_stats
  /// / `muffin_cli stats`).
  [[nodiscard]] StatsReport authoritative_stats() const;

  /// Hot-swap one shard's model to the head artifact at `artifact_path`
  /// (local replicas read the path here; remote replicas resolve it on
  /// their server — see ReplicaBackend::reload). The swap happens under
  /// live traffic with zero failed requests: the shard stays on the
  /// ring throughout, in-flight batches finish on their pinned version.
  /// Runs off the router locks, like health probes. Returns the
  /// installed model version; throws for removed shards or a rejected
  /// artifact.
  std::uint64_t reload_shard(std::size_t shard,
                             const std::string& artifact_path);

  /// Roll the whole fleet, shard by shard, to the artifact at
  /// `artifact_path`: every live replica (active or drained — a drained
  /// shard must not come back serving a stale model) reloads in shard
  /// order, one at a time. Returns the installed version per live shard,
  /// indexed by shard id (0 marks removed shards). The first failing
  /// shard aborts the roll and rethrows, leaving already-rolled shards
  /// on the new version; rerun with a freshly stamped (or unstamped)
  /// artifact to finish the roll — each registry's rollback guard
  /// refuses a version it has already passed.
  std::vector<std::uint64_t> reload_all(const std::string& artifact_path);

  [[nodiscard]] const RouterConfig& config() const { return config_; }

 private:
  friend struct RouterTestAccess;

  enum class State { Active, Drained, Removed };

  struct Replica {
    /// shared_ptr so the health monitor can probe off the router locks
    /// without racing removal; null once Removed.
    std::shared_ptr<ReplicaBackend> backend;
    State state = State::Active;
    bool auto_drained = false;       ///< drained by the health monitor
    std::size_t probe_failures = 0;  ///< consecutive, monitor-maintained
    std::size_t probe_successes = 0;  ///< consecutive, while auto-drained
    std::atomic<std::size_t> routed{0};
    std::string describe;  ///< survives removal for post-mortem tables
    bool is_remote = false;
    // Freeze-at-removal snapshot (meaningful once state == Removed).
    obs::MetricsSnapshot frozen_metrics;
    std::size_t frozen_cache_entries = 0;
  };

  /// All require the exclusive lock.
  std::size_t add_local_replica_locked();
  std::size_t add_backend_locked(std::shared_ptr<ReplicaBackend> backend,
                                 bool is_remote);
  void drain_locked(Replica& replica, std::size_t shard, bool automatic);
  void restore_locked(Replica& replica, std::size_t shard);
  [[nodiscard]] Replica& checked_locked(std::size_t shard) const;
  [[nodiscard]] std::size_t active_count_locked() const;

  /// Route `record` to a ring replica not in `avoid` and submit it.
  /// Writes the chosen shard id through `shard_out` (when non-null)
  /// BEFORE the backend submit, so a submit-time throw still tells the
  /// retry loop which shard to avoid next.
  [[nodiscard]] std::future<Prediction> submit_routed(
      const data::Record& record, const std::vector<std::uint64_t>& avoid,
      std::uint64_t* shard_out);
  /// Deferred-retry driver: resolve the eager first attempt, then fail
  /// over across the ring under the token budget. Runs on the caller's
  /// thread when the returned future is waited on.
  [[nodiscard]] Prediction submit_with_retries(data::Record record,
                                               std::future<Prediction> first,
                                               std::uint64_t first_shard,
                                               std::exception_ptr first_error);
  [[nodiscard]] bool try_take_retry_token();
  void earn_retry_token();

  void ensure_monitor_locked();
  void health_loop();

  std::shared_ptr<const core::FusedModel> model_;
  RouterConfig config_;

  mutable std::shared_mutex mutex_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  HashRing ring_;
  bool stopped_ = false;

  /// Retry-budget bank in millitokens (1000 = one retry), so fractional
  /// budget_ratio earns accumulate without floating-point atomics.
  std::atomic<std::int64_t> retry_tokens_millis_{0};

  // Health monitor lifecycle (started lazily with the first remote
  // replica; woken for shutdown via the condition variable).
  std::mutex monitor_mutex_;
  std::condition_variable monitor_wake_;
  bool monitor_stop_ = false;
  std::thread monitor_;
};

}  // namespace muffin::serve
