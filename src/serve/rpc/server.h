// ShardServer: one process's worth of shard, behind a socket.
//
// Wraps an InferenceEngine and speaks the batched wire format
// (serve/rpc/wire.h) over TCP or a Unix-domain socket. One ShardServer
// per process is the deployment unit the ROADMAP names: a ShardRouter in
// the client process routes by consistent hash exactly as it does for
// in-process replicas, but the replica lives here, behind
// `muffin_cli serve --listen host:port`.
//
// Concurrency model:
//  * an accept thread hands each connection a reader and a writer thread;
//  * the reader decodes frames and *immediately* submits every record of
//    a ScoreRequest into the engine — so batches from different
//    connections interleave in the engine's Batcher and micro-batch
//    together (cross-connection batching for free), and a pipelining
//    client keeps the engine fed without waiting for earlier responses;
//  * the writer completes responses strictly in request order per
//    connection (FIFO of pending future-sets), which is what lets the
//    client match pipelined responses by sequence number without a
//    reorder buffer.
//
// Failure semantics: if any record of a request fails to score, the
// whole request is answered with one Error frame (echoing its seq) after
// every already-submitted record of that request has been awaited — the
// same quiesce-then-fail rule ShardRouter::predict_batch defines for
// partial failures. A malformed frame (bad magic/version/length or an
// undecodable payload) poisons the stream's framing, so the server sends
// a best-effort Error frame and closes that connection; other
// connections and the engine are unaffected.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/socket.h"
#include "serve/engine.h"
#include "serve/rpc/wire.h"

namespace muffin::serve::rpc {

/// Frames above kDefaultMaxFrameBytes are refused, and a response frame
/// that cannot be written within 10 s disconnects its client (one that
/// stopped draining its socket) rather than wedging the writer.
struct ShardServerConfig {
  EngineConfig engine;  ///< applied to the wrapped engine
  int backlog = 64;
};

class ShardServer {
 public:
  /// Bind `listen` ("host:port", port 0 for ephemeral, or "unix:/path")
  /// and start serving. Throws muffin::Error if the bind fails.
  ShardServer(std::shared_ptr<const core::FusedModel> model,
              const std::string& listen, ShardServerConfig config = {});
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// The bound endpoint with the kernel-resolved port.
  [[nodiscard]] const common::Endpoint& endpoint() const { return endpoint_; }
  [[nodiscard]] std::string address() const { return endpoint_.to_string(); }

  /// Stop accepting, disconnect every client, drain the engine
  /// (idempotent). From a client's viewpoint this is the shard dying.
  void stop();

  /// Graceful shutdown, the SIGTERM path: stop accepting new
  /// connections, keep serving until every connection's pending
  /// responses have been written out (bounded by `grace`), then stop().
  /// Unlike a bare stop(), a client that already got its frames on the
  /// wire never observes a failure.
  void drain(std::chrono::milliseconds grace);

  /// Hot-swap the served model to the head artifact at `path` — the
  /// same operation the Reload wire op performs, exposed for in-process
  /// control (the CLI's SIGHUP handler). Serving never pauses; returns
  /// the installed model version.
  std::uint64_t reload(const std::string& artifact_path) {
    return reload_head_artifact(engine_, artifact_path);
  }

  [[nodiscard]] const InferenceEngine& engine() const { return engine_; }
  [[nodiscard]] std::size_t connections_accepted() const;
  /// Connections currently held (open, or closed but not yet reaped).
  /// The accept loop reaps finished ones on its ~200 ms cadence, so this
  /// returns to the live-client count shortly after peers disconnect.
  [[nodiscard]] std::size_t open_connections() const;

 private:
  /// One response owed to a connection, in request order. Exactly one of
  /// {prebuilt frame, error, futures} applies.
  struct PendingResponse {
    std::uint64_t seq = 0;
    std::string error;  ///< non-empty: answer with an Error frame
    std::vector<std::future<Prediction>> futures;
    /// Non-empty: send these bytes verbatim (StatsResponse — encoded by
    /// the reader at request time so the snapshot reflects that moment,
    /// but still delivered through the FIFO to preserve per-connection
    /// response order).
    std::vector<std::uint8_t> raw_frame;
    bool traced = false;  ///< request was picked by the trace sampler
  };

  struct Connection {
    common::Socket socket;
    std::mutex mutex;
    std::condition_variable ready;
    /// Responses leave only once written (or dropped with the
    /// transport), so drain() waits for replies still being scored.
    std::deque<PendingResponse> pending;
    /// A frame has been read but its response is not queued yet.
    bool frame_in_hand = false;
    bool closed = false;
    std::thread reader;
    std::thread writer;
    // Set at thread exit; the accept loop reaps connections where both
    // are true (joins threads, releases the fd and the object). Without
    // reaping, every health probe — one short-lived connection each —
    // would leak an fd and two joinable threads until stop().
    std::atomic<bool> reader_done{false};
    std::atomic<bool> writer_done{false};
  };

  void accept_loop();
  /// Join and release every connection whose threads have both exited.
  void reap_finished_connections();
  void reader_loop(Connection& connection);
  void writer_loop(Connection& connection);
  void enqueue(Connection& connection, PendingResponse response);

  ShardServerConfig config_;
  InferenceEngine engine_;
  common::ListenSocket listener_;
  common::Endpoint endpoint_;

  std::atomic<bool> stopped_{false};
  /// drain() raises this before joining the acceptor: the accept loop
  /// must exit while stopped_ is still false (stop() runs only at the
  /// end of the grace window, and setting stopped_ early would make its
  /// exchange() a no-op and skip the real shutdown).
  std::atomic<bool> draining_{false};
  std::atomic<std::size_t> accepted_{0};
  std::thread acceptor_;
  mutable std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace muffin::serve::rpc
