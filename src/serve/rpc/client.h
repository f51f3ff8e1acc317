// RemoteShard: a ShardServer replica as seen from the client process.
//
// Satisfies the same submit/stats/health surface as an in-process
// replica (serve/replica.h), so the ShardRouter routes to it without
// knowing there is a socket in the way.
//
//  * **One thread per pooled connection, sending what is queued.**
//    submit() appends to the shard's queue and, if it was empty, wakes
//    one waiting connection thread (a connected one first); a thread that
//    takes a frame and leaves work queued wakes the next. While
//    fewer than two of its frames are unanswered, a connection's thread
//    sends whatever is queued (up to max_batch rows) as ONE ScoreRequest
//    frame; else it reads the next reply, matches it to its oldest frame
//    by sequence number (the server answers each connection in request
//    order) and delivers it. There is no flush timer: a request leaves
//    as soon as a slot is free, and frames grow with load, because
//    requests that arrive while every slot is taken leave together.
//  * **Lazy transport.** A connection is dialed when there is work for
//    it. After a failed dial the shard waits out a full-jittered
//    exponential backoff window before dialing again; while no pooled
//    connection is open inside that window, queued batches fail fast
//    (feeding consecutive_failures and the router's auto-drain/retry
//    machinery). A batch fails for want of a transport only when no
//    pooled connection can carry it. Waiting threads watch their idle
//    sockets, so a connection the server closed is redialed, not failed.
//  * **Deadlines everywhere.** Connect, request, and probe deadlines turn
//    a dead, wedged or overloaded server into failed futures and a rising
//    consecutive_failures() count, never into a hung client thread. A
//    request's deadline runs from submit(), through the queue and its
//    frame, so a backlog longer than request_timeout fails.
//
// Failure semantics (shared with ShardRouter::predict_batch): a batch is
// all-or-error. If its connection dies or its deadline passes, every
// in-flight request on that connection fails with muffin::Error.
// shutdown() still sends and answers everything already submitted.
// probe(), fetch_stats() and reload() each open a dedicated short-lived
// connection. A probe (an empty score request through the server's full
// request path) deliberately does NOT clear consecutive_failures() —
// only real request successes or the router restoring the shard
// (reset_failures()) do — so a probe-alive but request-dead server
// cannot launder its failure history.
//
// Stats are client-observed and recorded under the engine's names into a
// registry of this shard's own: engine.latency_us is the round trip
// measured here (submit to response, including time queued for a free
// slot), and engine.requests / .batches / .cache_hits /
// .consensus_short_circuits / .head_evaluations are reconstructed from
// the per-prediction response flags. That registry is detached from the
// process registry on purpose: in a one-process topology the serving
// engine already counts each request there, and a second count would
// double the process totals. cache_entries() is unknowable across the
// wire and reports 0.
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
#include "serve/replica.h"
#include "serve/rpc/wire.h"

namespace muffin::serve::rpc {

struct RemoteShardConfig {
  std::size_t connections = 2;  ///< pooled connections, one thread each
  std::size_t max_batch = 32;   ///< most rows one request frame carries
  std::chrono::milliseconds connect_timeout{1000};
  std::chrono::milliseconds request_timeout{5000};
  std::chrono::milliseconds probe_timeout{500};
  /// Reconnect backoff: after a failed connect the shard waits a full-
  /// jittered exponential window — U(0, min(cap, initial·2^failures)) —
  /// before dialing the endpoint again.
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
  [[nodiscard]] std::string describe() const override {
    return endpoint_.to_string();
  }
  [[nodiscard]] obs::MetricsSnapshot metrics() const override {
    return telemetry_.snapshot();
  }
  [[nodiscard]] std::size_t cache_entries() const override { return 0; }

  /// Fetch the server's authoritative stats over the Stats RPC. Throws
  /// muffin::Error when the server is unreachable or lacks the Stats op.
  [[nodiscard]] StatsReport fetch_stats();
  /// ReplicaBackend surface: fetch_stats with failures mapped to nullopt.
  [[nodiscard]] std::optional<StatsReport> authoritative_stats() override;

  /// Hot-swap the server's model over the Reload RPC. `artifact_path`
  /// names a file on the *server's* filesystem. Returns the installed
  /// model version; throws muffin::Error when the server is unreachable,
  /// rejects the artifact, or refuses a non-advancing version. Not
  /// counted toward consecutive_failures — a bad rollout artifact must
  /// not drain an otherwise healthy shard.
  [[nodiscard]] std::uint64_t reload(const std::string& artifact_path) override;

  /// Lifetime count of data-path dials (probe/stats/reload excluded).
  [[nodiscard]] std::size_t connect_attempts() const {
    return connect_attempts_.load(std::memory_order_relaxed);
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct ClientRequest {
    data::Record record;
    Clock::time_point enqueued;
    std::promise<Prediction> promise;
    bool traced = false;  ///< picked by obs::Tracer::sample at submit
  };

  /// One request frame awaiting its reply, in send order.
  struct PendingBatch {
    std::uint64_t seq = 0;
    /// Its first request's submit() time plus request_timeout.
    Clock::time_point deadline;
    std::vector<ClientRequest> requests;
    bool traced = false;  ///< any request in the batch is traced
  };

  /// One pooled connection: its thread alone uses `socket` and
  /// `in_flight`; mutex_ guards `open` (only its thread writes it) and
  /// `waiting`.
  struct Connection {
    common::Socket socket;
    std::deque<PendingBatch> in_flight;  ///< at most kMaxInFlight, oldest first
    /// An eventfd (a Socket only for its RAII close): submit(), a sibling
    /// and shutdown() write it to wake the thread out of its poll.
    common::Socket wake;
    bool open = false;
    bool waiting = false;  ///< polling with a free slot; claimable
    std::thread thread;
  };

  /// One request frame being scored, the next waiting in the server's
  /// socket: enough to keep a connection busy without a deeper pipeline.
  static constexpr std::size_t kMaxInFlight = 2;

  /// Pick a waiting connection (a connected one first) to wake for queued
  /// work; mutex_ held, notify() it after unlocking.
  Connection* claim_waiter();
  void connection_loop(Connection& connection);
  void dial(Connection& connection);
  void send(Connection& connection, std::vector<ClientRequest> batch);
  /// Poll until a wake-up, a reply or the oldest in-flight deadline, and
  /// read the reply if one arrived (the loop fails what is overdue).
  void wait(Connection& connection);
  void read_reply(Connection& connection);
  /// Close `connection` and fail every batch still in flight on it.
  void fail_connection(Connection& connection, const std::string& why);
  void fail_batch(std::vector<ClientRequest>& requests,
                  const std::string& why);
  void deliver(PendingBatch batch, std::vector<Prediction> predictions);
  /// Count a failed batch before failing its promises (observers see both).
  void count_failure();
  /// Arm the reconnect backoff window after a failed dial (mutex_ held).
  void note_connect_failure();

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

  std::vector<std::unique_ptr<Connection>> connections_;
  std::atomic<std::uint64_t> connect_attempts_{0};
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::size_t> consecutive_failures_{0};

  std::mutex mutex_;  ///< guards everything below, and Connection::open/waiting
  std::deque<ClientRequest> queue_;
  bool stopped_ = false;
  std::size_t connect_failures_ = 0;          ///< consecutive failed dials
  Clock::time_point next_connect_attempt_{};  ///< epoch: first dial is free
};

}  // namespace muffin::serve::rpc
