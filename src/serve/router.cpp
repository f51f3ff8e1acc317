#include "serve/router.h"

#include <algorithm>

#include "common/error.h"
#include "common/failpoint.h"
#include "obs/metrics.h"

namespace muffin::serve {

namespace {

/// Routing-tier metrics, resolved once per process.
struct RouterMetrics {
  obs::Counter& routed = obs::registry().counter("router.routed");
  obs::Counter& submit_failures =
      obs::registry().counter("router.submit_failures");
  obs::Counter& probe_failures =
      obs::registry().counter("router.probe_failures");
  obs::Counter& auto_drains = obs::registry().counter("router.auto_drains");
  obs::Counter& auto_restores =
      obs::registry().counter("router.auto_restores");
  obs::Counter& retries = obs::registry().counter("serve.retries");
  obs::Counter& failovers = obs::registry().counter("serve.failovers");
  obs::Counter& retry_budget_exhausted =
      obs::registry().counter("serve.retry_budget_exhausted");

  static RouterMetrics& get() {
    static RouterMetrics metrics;
    return metrics;
  }
};

/// "No shard chosen": the retry loop uses this to tell a routing failure
/// (nothing to avoid) from a submit failure on a concrete shard.
constexpr std::uint64_t kNoShard = ~std::uint64_t{0};

/// Retry budget, in millitokens (1000 = one retry). Each successful
/// routed submit earns 0.1 retries.
constexpr std::int64_t kRetryEarnMillis = 100;
/// Bank cap, and the initial balance (so failover works from a cold
/// start): 128 retries, sized to absorb one client-side send failure,
/// which orphans several pipelined batches' worth of requests at once.
constexpr std::int64_t kRetryBurstMillis = 128 * 1000;

/// The all-or-error rule for a set of submitted requests: wait for every
/// future and return all predictions; if any failed, still await the
/// rest (so nothing is left in flight) and rethrow the first error.
std::vector<Prediction> collect_all_or_error(
    std::vector<std::future<Prediction>> futures) {
  std::vector<Prediction> predictions;
  predictions.reserve(futures.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    try {
      predictions.push_back(futures[i].get());
    } catch (...) {
      // Quiesce everything still in flight before the error propagates:
      // the caller must be free to shut down or resubmit immediately.
      for (std::size_t j = i + 1; j < futures.size(); ++j) {
        futures[j].wait();
      }
      throw;
    }
  }
  return predictions;
}

}  // namespace

ShardRouter::ShardRouter(std::shared_ptr<const core::FusedModel> model,
                         RouterConfig config)
    : model_(std::move(model)),
      config_(std::move(config)),
      ring_(config_.virtual_nodes) {
  MUFFIN_REQUIRE(model_ != nullptr || config_.shards == 0,
                 "router needs a fused model for local replicas");
  MUFFIN_REQUIRE(config_.shards + config_.remote_endpoints.size() > 0,
                 "router needs at least one shard");
  // The bank starts full so failover works from a cold start — the first
  // failure a router ever sees is often the one it was deployed to mask.
  retry_tokens_millis_.store(kRetryBurstMillis, std::memory_order_relaxed);
  // Construction is single-threaded; the _locked helpers are safe here.
  for (std::size_t s = 0; s < config_.shards; ++s) {
    (void)add_local_replica_locked();
  }
  for (const std::string& endpoint : config_.remote_endpoints) {
    (void)add_backend_locked(
        std::make_shared<rpc::RemoteShard>(endpoint, config_.remote),
        /*is_remote=*/true);
  }
  ensure_monitor_locked();
}

ShardRouter::~ShardRouter() { shutdown(); }

std::future<Prediction> ShardRouter::submit(const data::Record& record) {
  if (config_.retry.max_attempts <= 1) {
    return submit_routed(record, nullptr, nullptr);
  }
  // Retries on. The first attempt still goes out EAGERLY so batching and
  // pipelining behave exactly as in the no-retry path; only the retry
  // driver is deferred to future-resolution time, because a dead remote
  // shard fails at response time, not submit time — the failure we must
  // fail over from does not exist yet when submit() returns.
  std::uint64_t first_shard = kNoShard;
  std::future<Prediction> first;
  std::exception_ptr first_error;
  try {
    first = submit_routed(record, nullptr, &first_shard);
  } catch (const Overloaded&) {
    throw;  // shed is a capacity signal, never retried
  } catch (...) {
    first_error = std::current_exception();
  }
  return std::async(std::launch::deferred,
                    [this, record, first = std::move(first), first_shard,
                     first_error]() mutable {
                      return submit_with_retries(std::move(record),
                                                 std::move(first),
                                                 first_shard, first_error);
                    });
}

std::future<Prediction> ShardRouter::submit_routed(
    const data::Record& record, std::vector<std::uint64_t>* avoid,
    std::uint64_t* shard_out) {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  MUFFIN_REQUIRE(!stopped_, "cannot submit to a stopped router");
  std::optional<std::uint64_t> candidate;
  if (avoid != nullptr && !avoid->empty()) {
    candidate = ring_.node_for_excluding(record.uid, *avoid);
    // Every replica has failed this request once: transient faults must
    // not end it early, so it gets the full ring back.
    if (!candidate.has_value()) avoid->clear();
  }
  const std::uint64_t shard =
      candidate.has_value() ? *candidate : ring_.node_for(record.uid);
  // A retry spends a token, and counts, only when it will really submit.
  if (avoid != nullptr) {
    if (!try_take_retry_token()) return {};
    RouterMetrics::get().retries.inc();
  }
  if (shard_out != nullptr) *shard_out = shard;
  Replica& replica = *replicas_[shard];
  std::future<Prediction> future;
  try {
    fail::maybe_fail("serve.router.submit");
    future = replica.backend->submit(record);
  } catch (...) {
    RouterMetrics::get().submit_failures.inc();
    throw;
  }
  // Count only after a successful enqueue: a submit that throws (e.g. a
  // backend racing shutdown) never reached the shard, and `routed` feeds
  // capacity decisions — overcounting failed submits would skew them.
  replica.routed.fetch_add(1, std::memory_order_relaxed);
  RouterMetrics::get().routed.inc();
  if (config_.retry.max_attempts > 1) earn_retry_token();
  return future;
}

Prediction ShardRouter::submit_with_retries(data::Record record,
                                            std::future<Prediction> first,
                                            std::uint64_t first_shard,
                                            std::exception_ptr first_error) {
  std::exception_ptr last_error = first_error;
  if (!last_error) {
    try {
      return first.get();
    } catch (const Overloaded&) {
      throw;  // never retry a shed — it would defeat the load shedding
    } catch (...) {
      last_error = std::current_exception();
    }
  }
  RouterMetrics& metrics = RouterMetrics::get();
  std::vector<std::uint64_t> avoid;
  if (first_shard != kNoShard) avoid.push_back(first_shard);
  for (std::size_t attempt = 1; attempt < config_.retry.max_attempts;
       ++attempt) {
    std::uint64_t shard = kNoShard;
    std::future<Prediction> future;
    try {
      future = submit_routed(record, &avoid, &shard);
    } catch (const Overloaded&) {
      throw;
    } catch (...) {
      // Routing itself failed (a stopped router, an empty ring): there is
      // nowhere to go. Keep the real (submit-time) error for the caller.
      if (shard == kNoShard) break;
      last_error = std::current_exception();
      avoid.push_back(shard);
      continue;
    }
    if (!future.valid()) break;  // budget dry: fail fast, no storm
    if (shard != first_shard) metrics.failovers.inc();
    try {
      return future.get();
    } catch (const Overloaded&) {
      throw;
    } catch (...) {
      last_error = std::current_exception();
      avoid.push_back(shard);
    }
  }
  std::rethrow_exception(last_error);
}

bool ShardRouter::try_take_retry_token() {
  std::int64_t balance = retry_tokens_millis_.load(std::memory_order_relaxed);
  while (balance >= 1000) {
    if (retry_tokens_millis_.compare_exchange_weak(
            balance, balance - 1000, std::memory_order_relaxed)) {
      return true;
    }
  }
  RouterMetrics::get().retry_budget_exhausted.inc();
  return false;
}

void ShardRouter::earn_retry_token() {
  std::int64_t balance = retry_tokens_millis_.load(std::memory_order_relaxed);
  while (balance < kRetryBurstMillis &&
         !retry_tokens_millis_.compare_exchange_weak(
             balance, std::min(kRetryBurstMillis, balance + kRetryEarnMillis),
             std::memory_order_relaxed)) {
  }
}

Prediction ShardRouter::predict(const data::Record& record) {
  return submit(record).get();
}

std::vector<Prediction> ShardRouter::predict_batch(
    std::span<const data::Record> records) {
  std::vector<std::future<Prediction>> futures;
  futures.reserve(records.size());
  for (const data::Record& record : records) {
    try {
      futures.push_back(submit(record));
    } catch (...) {
      // All-or-error: quiesce the already-submitted prefix before the
      // failure propagates. Waiting (not abandoning) is what guarantees
      // no request of this call is still in flight when the caller sees
      // the exception — the rule the RPC client and server share.
      for (std::future<Prediction>& future : futures) {
        future.wait();
      }
      throw;
    }
  }
  return collect_all_or_error(std::move(futures));
}

void ShardRouter::shutdown() {
  {
    const std::unique_lock<std::shared_mutex> lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  // Stop the health monitor first so no probe or drain transition races
  // the backend shutdowns below.
  {
    const std::lock_guard<std::mutex> lock(monitor_mutex_);
    monitor_stop_ = true;
  }
  monitor_wake_.notify_all();
  if (monitor_.joinable()) monitor_.join();
  // Collect the live backends under the lock, stop them outside it:
  // stopping a remote shard can block up to its request-timeout grace
  // while it drains, and stats readers should not stall behind that.
  // New submits are already rejected (stopped_ is set above).
  std::vector<std::shared_ptr<ReplicaBackend>> backends;
  {
    const std::unique_lock<std::shared_mutex> lock(mutex_);
    for (const std::unique_ptr<Replica>& replica : replicas_) {
      if (replica->state != State::Removed) {
        backends.push_back(replica->backend);
      }
    }
  }
  for (const std::shared_ptr<ReplicaBackend>& backend : backends) {
    backend->shutdown();
  }
}

std::size_t ShardRouter::shard_for(std::uint64_t uid) const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  MUFFIN_REQUIRE(!stopped_, "shard_for on a stopped router");
  return static_cast<std::size_t>(ring_.node_for(uid));
}

std::size_t ShardRouter::add_replica() {
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  MUFFIN_REQUIRE(!stopped_, "cannot add a replica to a stopped router");
  return add_local_replica_locked();
}

std::size_t ShardRouter::add_remote_replica(const std::string& endpoint) {
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  MUFFIN_REQUIRE(!stopped_, "cannot add a replica to a stopped router");
  const std::size_t shard = add_backend_locked(
      std::make_shared<rpc::RemoteShard>(endpoint, config_.remote),
      /*is_remote=*/true);
  ensure_monitor_locked();
  return shard;
}

std::size_t ShardRouter::add_local_replica_locked() {
  MUFFIN_REQUIRE(model_ != nullptr,
                 "router was built without a model; only remote replicas "
                 "can be added");
  return add_backend_locked(
      std::make_shared<LocalReplica>(model_, config_.engine),
      /*is_remote=*/false);
}

std::size_t ShardRouter::add_backend_locked(
    std::shared_ptr<ReplicaBackend> backend, bool is_remote) {
  const std::size_t shard = replicas_.size();
  auto replica = std::make_unique<Replica>();
  replica->describe = backend->describe();
  replica->is_remote = is_remote;
  replica->backend = std::move(backend);
  replicas_.push_back(std::move(replica));
  ring_.add(static_cast<std::uint64_t>(shard));
  return shard;
}

void ShardRouter::drain(std::size_t shard) {
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  MUFFIN_REQUIRE(!stopped_, "cannot drain on a stopped router");
  Replica& replica = checked_locked(shard);
  drain_locked(replica, shard, /*automatic=*/false);
}

void ShardRouter::drain_locked(Replica& replica, std::size_t shard,
                               bool automatic) {
  MUFFIN_REQUIRE(replica.state == State::Active,
                 "can only drain an active replica");
  MUFFIN_REQUIRE(active_count_locked() > 1,
                 "cannot drain the last active replica");
  ring_.remove(static_cast<std::uint64_t>(shard));
  replica.state = State::Drained;
  replica.auto_drained = automatic;
  replica.probe_successes = 0;
}

void ShardRouter::restore(std::size_t shard) {
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  MUFFIN_REQUIRE(!stopped_, "cannot restore on a stopped router");
  Replica& replica = checked_locked(shard);
  MUFFIN_REQUIRE(replica.state == State::Drained,
                 "can only restore a drained replica");
  restore_locked(replica, shard);
}

void ShardRouter::restore_locked(Replica& replica, std::size_t shard) {
  ring_.add(static_cast<std::uint64_t>(shard));
  replica.state = State::Active;
  replica.auto_drained = false;
  replica.probe_failures = 0;
  replica.probe_successes = 0;
  // A restored shard starts with a clean failure history; stale counts
  // would re-drain it on the monitor's next pass.
  replica.backend->reset_failures();
}

void ShardRouter::remove_replica(std::size_t shard) {
  std::shared_ptr<ReplicaBackend> retired;
  {
    const std::unique_lock<std::shared_mutex> lock(mutex_);
    MUFFIN_REQUIRE(!stopped_, "cannot remove a replica on a stopped router");
    Replica& replica = checked_locked(shard);
    MUFFIN_REQUIRE(replica.state != State::Removed,
                   "replica is already removed");
    if (replica.state == State::Active) {
      MUFFIN_REQUIRE(active_count_locked() > 1,
                     "cannot remove the last active replica");
      ring_.remove(static_cast<std::uint64_t>(shard));
    }
    // Freeze-at-removal, preliminary: snapshot every stat the aggregates
    // and operator tables consume so observers never touch a retiring
    // backend. Refined below once the drain completes.
    replica.frozen_metrics = replica.backend->metrics();
    replica.frozen_cache_entries = replica.backend->cache_entries();
    replica.state = State::Removed;
    retired = std::move(replica.backend);
  }
  // The exclusive section above is what makes removal safe: no submitter
  // can be between routing and backend->submit once the shard is off the
  // ring and its backend pointer cleared. The (possibly slow) stop runs
  // OUTSIDE the lock — draining a remote shard can block up to its
  // request-timeout grace, and routing must not stall behind it. The
  // health monitor holds its own shared_ptr, so a probe in flight
  // during removal finishes against a live (stopping) object.
  retired->shutdown();
  // Final freeze: the drain above let in-flight requests complete and
  // record their latency AFTER the preliminary snapshot. Re-snapshot the
  // quiesced backend so the frozen view is internally consistent (every
  // counted request also has its latency) before the backend dies.
  {
    const std::unique_lock<std::shared_mutex> lock(mutex_);
    Replica& replica = *replicas_[shard];
    replica.frozen_metrics = retired->metrics();
    replica.frozen_cache_entries = retired->cache_entries();
  }
}

std::size_t ShardRouter::replica_count() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  return replicas_.size();
}

std::size_t ShardRouter::active_count() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  return active_count_locked();
}

bool ShardRouter::active(std::size_t shard) const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  return checked_locked(shard).state == State::Active;
}

const InferenceEngine& ShardRouter::replica(std::size_t shard) const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  const Replica& replica = checked_locked(shard);
  MUFFIN_REQUIRE(replica.state != State::Removed,
                 "replica was removed; its backend is retired");
  const InferenceEngine* engine = replica.backend->engine();
  MUFFIN_REQUIRE(engine != nullptr,
                 "replica is remote; it has no in-process engine");
  return *engine;
}

obs::MetricsSnapshot ShardRouter::aggregate_metrics() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  obs::MetricsSnapshot merged;
  for (const std::unique_ptr<Replica>& replica : replicas_) {
    merged.merge(replica->state == State::Removed
                     ? replica->frozen_metrics
                     : replica->backend->metrics());
  }
  return merged;
}

StatsReport ShardRouter::authoritative_stats() const {
  StatsReport total;
  // Phase 1 (shared lock): fold the frozen snapshots of removed replicas
  // and collect live backends. shared_ptrs keep backends alive across
  // the unlocked fetches even if a replica is removed meanwhile (the
  // freeze-at-removal rule covers the router's own view; our extra fetch
  // against a stopping backend is safe, merely possibly refused).
  std::vector<std::shared_ptr<ReplicaBackend>> backends;
  {
    const std::shared_lock<std::shared_mutex> lock(mutex_);
    for (const std::unique_ptr<Replica>& replica : replicas_) {
      if (replica->state == State::Removed) {
        total.engine.merge(replica->frozen_metrics);
        total.cache_entries += replica->frozen_cache_entries;
      } else {
        backends.push_back(replica->backend);
      }
    }
  }
  // Phase 2 (no locks): fetch. Remote fetches may block up to their
  // connect/request deadlines; routing stays live meanwhile.
  for (const std::shared_ptr<ReplicaBackend>& backend : backends) {
    if (std::optional<StatsReport> report = backend->authoritative_stats()) {
      total.engine.merge(report->engine);
      total.cache_entries += report->cache_entries;
    } else {
      // Unreachable (or pre-Stats) remote: degrade to this client's
      // observed accounting rather than dropping the shard's traffic
      // from the aggregate.
      total.engine.merge(backend->metrics());
      total.cache_entries += backend->cache_entries();
    }
  }
  total.process = obs::registry().snapshot();
  return total;
}

std::uint64_t ShardRouter::reload_shard(std::size_t shard,
                                        const std::string& artifact_path) {
  // Grab the backend under the shared lock, reload off the locks: a
  // remote reload blocks on the network up to its request deadline, and
  // routing (including to this very shard) must stay live meanwhile —
  // that is the whole point of the zero-downtime swap.
  std::shared_ptr<ReplicaBackend> backend;
  {
    const std::shared_lock<std::shared_mutex> lock(mutex_);
    MUFFIN_REQUIRE(!stopped_, "router is stopped");
    Replica& replica = checked_locked(shard);
    MUFFIN_REQUIRE(replica.state != State::Removed,
                   "cannot reload a removed shard");
    backend = replica.backend;
  }
  return backend->reload(artifact_path);
}

std::vector<std::uint64_t> ShardRouter::reload_all(
    const std::string& artifact_path) {
  std::size_t count;
  {
    const std::shared_lock<std::shared_mutex> lock(mutex_);
    MUFFIN_REQUIRE(!stopped_, "router is stopped");
    count = replicas_.size();
  }
  std::vector<std::uint64_t> versions(count, 0);
  for (std::size_t shard = 0; shard < count; ++shard) {
    {
      const std::shared_lock<std::shared_mutex> lock(mutex_);
      if (shard < replicas_.size() &&
          replicas_[shard]->state == State::Removed) {
        continue;  // retired mid-roll (or before): nothing to reload
      }
    }
    versions[shard] = reload_shard(shard, artifact_path);
  }
  return versions;
}

std::vector<ShardInfo> ShardRouter::shard_infos() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<ShardInfo> infos;
  infos.reserve(replicas_.size());
  for (std::size_t s = 0; s < replicas_.size(); ++s) {
    const Replica& replica = *replicas_[s];
    ShardInfo info;
    info.shard = s;
    info.active = replica.state == State::Active;
    info.alive = replica.state != State::Removed;
    info.remote = replica.is_remote;
    info.auto_drained = replica.auto_drained;
    info.backend = replica.describe;
    info.routed = replica.routed.load(std::memory_order_relaxed);
    if (replica.state == State::Removed) {
      info.cache_entries = replica.frozen_cache_entries;
      info.metrics = replica.frozen_metrics;
    } else {
      info.cache_entries = replica.backend->cache_entries();
      info.metrics = replica.backend->metrics();
    }
    infos.push_back(std::move(info));
  }
  return infos;
}

ShardRouter::Replica& ShardRouter::checked_locked(std::size_t shard) const {
  MUFFIN_REQUIRE(shard < replicas_.size(), "shard id out of range");
  return *replicas_[shard];
}

std::size_t ShardRouter::active_count_locked() const {
  std::size_t active = 0;
  for (const std::unique_ptr<Replica>& replica : replicas_) {
    if (replica->state == State::Active) ++active;
  }
  return active;
}

void ShardRouter::ensure_monitor_locked() {
  if (monitor_.joinable()) return;
  if (config_.health.probe_interval.count() == 0) return;
  const bool any_remote =
      std::any_of(replicas_.begin(), replicas_.end(),
                  [](const std::unique_ptr<Replica>& replica) {
                    return replica->is_remote;
                  });
  if (!any_remote) return;
  monitor_ = std::thread([this]() { health_loop(); });
}

void ShardRouter::health_loop() {
  struct ProbeTarget {
    std::size_t shard = 0;
    std::shared_ptr<ReplicaBackend> backend;
    bool was_active = false;
    bool was_auto_drained = false;
    std::size_t submit_failures = 0;
    bool probe_ok = false;
  };
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(monitor_mutex_);
      monitor_wake_.wait_for(lock, config_.health.probe_interval,
                             [this]() { return monitor_stop_; });
      if (monitor_stop_) return;
    }

    // Phase 1 (shared lock): snapshot who to probe. Backend shared_ptrs
    // keep the objects alive even if a replica is removed mid-probe.
    std::vector<ProbeTarget> targets;
    {
      const std::shared_lock<std::shared_mutex> lock(mutex_);
      if (stopped_) return;
      for (std::size_t s = 0; s < replicas_.size(); ++s) {
        const Replica& replica = *replicas_[s];
        if (!replica.is_remote || replica.state == State::Removed) continue;
        if (replica.state == State::Drained && !replica.auto_drained) {
          continue;  // operator drains are out of the monitor's hands
        }
        ProbeTarget target;
        target.shard = s;
        target.backend = replica.backend;
        target.was_active = replica.state == State::Active;
        target.was_auto_drained = replica.auto_drained;
        // Read BEFORE probing: a successful probe resets the backend's
        // failure count, which would erase the submit-timeout signal.
        target.submit_failures = replica.backend->consecutive_failures();
        targets.push_back(std::move(target));
      }
    }

    // Phase 2 (no locks): probe. Each probe may block up to its connect
    // and probe deadlines; holding no router lock keeps serving live.
    for (ProbeTarget& target : targets) {
      target.probe_ok = target.backend->probe();
      if (!target.probe_ok) RouterMetrics::get().probe_failures.inc();
    }

    // Phase 3 (exclusive lock): apply transitions, revalidating state —
    // an operator may have drained/restored/removed the shard meanwhile.
    {
      const std::unique_lock<std::shared_mutex> lock(mutex_);
      if (stopped_) return;
      for (const ProbeTarget& target : targets) {
        Replica& replica = *replicas_[target.shard];
        if (replica.state == State::Removed) continue;
        if (replica.state == State::Active && target.was_active) {
          replica.probe_failures =
              target.probe_ok ? 0 : replica.probe_failures + 1;
          const bool unhealthy =
              replica.probe_failures >= config_.health.failure_threshold ||
              target.submit_failures >= config_.health.failure_threshold;
          if (unhealthy && active_count_locked() > 1) {
            drain_locked(replica, target.shard, /*automatic=*/true);
            RouterMetrics::get().auto_drains.inc();
          }
        } else if (replica.state == State::Drained &&
                   replica.auto_drained && target.was_auto_drained) {
          // Hysteresis: one lucky probe is not recovery. The probe is an
          // end-to-end canary (empty score request), so consecutive
          // successes mean the serving path itself is back.
          replica.probe_successes =
              target.probe_ok ? replica.probe_successes + 1 : 0;
          if (replica.probe_successes >=
              config_.health.recovery_threshold) {
            restore_locked(replica, target.shard);
            RouterMetrics::get().auto_restores.inc();
          }
        }
      }
    }
  }
}

}  // namespace muffin::serve
