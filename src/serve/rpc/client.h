// RemoteShard: a ShardServer replica as seen from the client process.
//
// Satisfies the same submit/stats/health surface as an in-process
// replica (serve/replica.h), so the ShardRouter routes to it without
// knowing there is a socket in the way. Three mechanisms keep the remote
// hop batch-first and pipelined:
//
//  * **Client-side micro-batching.** submit() enqueues into a Batcher
//    (same size/deadline policy as the engine); a dispatcher thread pops
//    whole batches and ships each as ONE ScoreRequest frame. The wire
//    carries record batches, so the server's GEMM path stays hot and the
//    per-frame syscall/framing cost is amortized across the batch.
//  * **Connection pooling + pipelining.** A small pool of connections is
//    used round-robin; the dispatcher does not wait for a response
//    before sending the next batch on the same connection. The server
//    answers per connection strictly in request order, so each
//    connection's reader matches responses to its FIFO of in-flight
//    batches by sequence number.
//  * **Deadlines everywhere.** Connect, request, and probe deadlines turn
//    a dead or wedged server into failed futures and a rising
//    consecutive_failures() count — the signal the router's health
//    monitor consumes for auto-drain — never into a hung client thread.
//
// Failure semantics (shared with ShardRouter::predict_batch): a batch is
// all-or-error. If its connection dies or its deadline passes, every
// in-flight request on that connection fails with muffin::Error; the
// next batch tries a fresh connection. probe() opens a dedicated
// short-lived connection for an end-to-end canary (an empty score
// request through the server's full request path). A probe deliberately
// does NOT clear consecutive_failures() — only real request successes
// or the router restoring the shard (reset_failures()) do — so a
// probe-alive but request-dead server cannot launder its failure
// history.
//
// Stats are client-observed and recorded under the engine's names into a
// registry of this shard's own: engine.latency_us is the round trip
// measured here (submit to response, including client batching delay —
// what a caller of this process actually waits), and engine.requests /
// .batches / .cache_hits / .consensus_short_circuits / .head_evaluations
// are reconstructed from the per-prediction response flags. That registry
// is detached from the process registry on purpose: in a one-process
// topology the serving engine already counts each request there, and a
// second count would double the process totals. cache_entries()/
// cache_contains() are unknowable across the wire and report 0/false.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/socket.h"
#include "serve/batcher.h"
#include "serve/replica.h"
#include "serve/rpc/wire.h"

namespace muffin::serve::rpc {

struct RemoteShardConfig {
  std::size_t connections = 2;   ///< pooled connections, used round-robin
  std::size_t max_batch = 32;    ///< client-side batch size flush
  std::chrono::microseconds max_delay{500};  ///< client-side deadline flush
  std::chrono::milliseconds connect_timeout{1000};
  std::chrono::milliseconds request_timeout{5000};
  std::chrono::milliseconds probe_timeout{500};
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Reconnect backoff: after a failed connect the shard waits a full-
  /// jittered exponential window — U(0, min(cap, initial·2^failures)) —
  /// before dialing the endpoint again. Batches arriving inside the
  /// window fail fast (feeding consecutive_failures and the router's
  /// auto-drain/retry machinery) instead of hammering a dead endpoint
  /// once per request.
  std::chrono::milliseconds backoff_initial{50};
  std::chrono::milliseconds backoff_cap{2000};
};

class RemoteShard final : public ReplicaBackend {
 public:
  /// `endpoint` is "host:port" or "unix:/path". Construction does not
  /// connect — the first batch does — so a router can be built before
  /// its remote shards are up.
  explicit RemoteShard(const std::string& endpoint,
                       RemoteShardConfig config = {});
  ~RemoteShard() override;

  RemoteShard(const RemoteShard&) = delete;
  RemoteShard& operator=(const RemoteShard&) = delete;

  [[nodiscard]] std::future<Prediction> submit(
      const data::Record& record) override;
  void shutdown() override;
  [[nodiscard]] bool probe() override;
  void reset_failures() override;

  [[nodiscard]] std::size_t consecutive_failures() const override {
    return consecutive_failures_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool remote() const override { return true; }
  [[nodiscard]] std::string describe() const override {
    return endpoint_.to_string();
  }
  [[nodiscard]] obs::MetricsSnapshot metrics() const override {
    return telemetry_.snapshot();
  }
  [[nodiscard]] std::size_t cache_entries() const override { return 0; }
  [[nodiscard]] bool cache_contains(std::uint64_t) const override {
    return false;
  }

  /// Fetch the server's authoritative stats over the Stats RPC, on a
  /// dedicated short-lived connection (like probe(), so it cannot
  /// interleave with pipelined score traffic). Throws muffin::Error when
  /// the server is unreachable or does not speak the Stats op.
  [[nodiscard]] StatsReport fetch_stats();
  /// ReplicaBackend surface: fetch_stats with failures mapped to nullopt.
  [[nodiscard]] std::optional<StatsReport> authoritative_stats() override;

  /// Hot-swap the server's model over the Reload RPC, on a dedicated
  /// short-lived connection (like probe/stats — control traffic must not
  /// queue behind pipelined score batches, and a failed reload must not
  /// poison them). `artifact_path` names a file on the *server's*
  /// filesystem. Returns the installed model version; throws
  /// muffin::Error when the server is unreachable, rejects the artifact,
  /// or refuses a non-advancing version. Deliberately not counted toward
  /// consecutive_failures — a bad rollout artifact must not drain an
  /// otherwise healthy shard.
  [[nodiscard]] std::uint64_t reload(const std::string& artifact_path) override;

  [[nodiscard]] const RemoteShardConfig& config() const { return config_; }

  /// Lifetime count of data-path connect attempts (reconnect dials;
  /// probe/stats connections excluded). The backoff tests pin how often
  /// a dead endpoint gets dialed over a time window.
  [[nodiscard]] std::size_t connect_attempts() const {
    return connect_attempts_.load(std::memory_order_relaxed);
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct ClientRequest {
    data::Record record;
    Clock::time_point enqueued;
    std::promise<Prediction> promise;
    /// Picked by the edge sampler (obs::Tracer::sample) at submit time;
    /// traced requests emit rpc.client.roundtrip span events.
    bool traced = false;
  };

  /// One pipelined request frame awaiting its response, in send order.
  struct PendingBatch {
    std::uint64_t seq = 0;
    Clock::time_point deadline;
    std::vector<ClientRequest> requests;
    bool traced = false;  ///< any request in the batch is traced
  };

  struct Connection {
    common::Socket socket;
    std::mutex mutex;  ///< guards pending and dead
    std::deque<PendingBatch> pending;
    bool dead = true;  ///< (re)connected lazily by the dispatcher
    std::thread reader;
  };

  void dispatch_loop();
  /// Send one batch on some pooled connection; fails every promise in
  /// the batch if no connection can be established.
  void send_batch(std::vector<ClientRequest> batch);
  void reader_loop(Connection& connection);
  /// Fail every in-flight batch on `connection` and mark it dead.
  void fail_connection(Connection& connection, const std::string& why);
  void fail_batch(std::vector<ClientRequest>& requests,
                  const std::string& why);
  void deliver(PendingBatch batch, std::vector<Prediction> predictions);

  /// Client-observed accounting (detached; see the header comment).
  struct Metrics {
    explicit Metrics(obs::Registry& registry);
    obs::Counter& requests;
    obs::Counter& batches;
    obs::Counter& cache_hits;
    obs::Counter& consensus;
    obs::Counter& head_evaluations;
    obs::Histogram& latency_us;
  };

  common::Endpoint endpoint_;
  RemoteShardConfig config_;
  obs::Registry telemetry_;
  Metrics metrics_;

  /// Arm the reconnect backoff window after a failed dial. Dispatcher-
  /// thread-only (send_batch runs solely on the dispatcher), like the
  /// window state below.
  void note_connect_failure();

  Batcher<ClientRequest> batcher_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::size_t next_connection_ = 0;  ///< dispatcher-only round-robin cursor
  std::size_t connect_failures_ = 0;          ///< consecutive failed dials
  Clock::time_point next_connect_attempt_{};  ///< epoch: first dial is free
  std::atomic<std::uint64_t> connect_attempts_{0};

  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::size_t> consecutive_failures_{0};

  std::atomic<bool> stopped_{false};
  std::thread dispatcher_;
};

}  // namespace muffin::serve::rpc
