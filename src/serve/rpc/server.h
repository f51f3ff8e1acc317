// ShardServer: one process's worth of shard, behind a socket.
//
// Wraps an InferenceEngine and speaks the batched wire format
// (serve/rpc/wire.h) over TCP or a Unix-domain socket. One ShardServer
// per process is the deployment unit the ROADMAP names: a ShardRouter in
// the client process routes by consistent hash exactly as it does for
// in-process replicas, but the replica lives here, behind
// `muffin_cli serve --listen host:port`.
//
// Concurrency model — the request frame is the unit of work:
//  * an accept thread gives each connection one thread, which reads a
//    frame, answers it (score, stats or reload), writes the reply, and
//    only then reads the next frame. A ScoreRequest's records are scored
//    right there, as one batch, through InferenceEngine::predict_batch:
//    the client's frame already is a batch, so the server adds no second
//    batching hop and no flush timer;
//  * replies therefore leave each connection in request order by
//    construction, which is what lets the client match pipelined
//    responses by sequence number without a reorder buffer;
//  * the trade-off: a connection's pipelined frames are scored one after
//    another. Server parallelism comes from the number of connections
//    (RemoteShardConfig::connections) and from the calibrated bodies' row
//    split inside large frames. There is no admission queue: a client that
//    pipelines faster than its connection is answered is pushed back
//    through the socket, bounded by its own request deadline.
//
// Failure semantics: a ScoreRequest whose scoring throws (an injected
// fault, or a record the body models reject) is answered with one Error
// frame echoing its seq, and the connection reads on. The failure stays
// in that frame: frames from other connections, and later frames on this
// one, are scored as separate batches. A malformed frame (bad magic/
// version/length or an undecodable payload) or a transport failure
// poisons the stream's framing, so the server sends a best-effort Error
// frame and closes that connection; other connections and the engine are
// unaffected.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/socket.h"
#include "serve/engine.h"
#include "serve/rpc/wire.h"

namespace muffin::serve::rpc {

/// Frames above kDefaultMaxFrameBytes are refused, and a reply frame that
/// cannot be written within 10 s disconnects its client (one that stopped
/// draining its socket) rather than wedging the connection's thread.
struct ShardServerConfig {
  /// Version the construction-time model is registered under (>= 1); a
  /// server loading a stamped artifact passes its model_version through.
  std::uint64_t initial_model_version = 1;
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

  /// drain(0ms): stop accepting, disconnect every client, shut the
  /// engine down (idempotent). From a client's viewpoint this is the
  /// shard dying.
  void stop() { drain(std::chrono::milliseconds(0)); }

  /// The one shutdown path (idempotent; the SIGTERM path with a grace
  /// window): stop accepting new connections, wait until every live
  /// connection is idle — no frame being answered and none waiting to be
  /// read — or `grace` runs out, then shut the sockets, join the
  /// connection threads and shut the engine down. A client whose frames
  /// were on the wire before the idle point never observes a failure.
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
  struct Connection {
    common::Socket socket;
    std::thread thread;
    /// Raised once the socket turns readable, before the frame's first
    /// byte is consumed, and cleared once its reply is written — so at no
    /// moment is a read frame neither readable nor busy (drain() relies
    /// on that to never drop an answer it owes).
    std::atomic<bool> busy{false};
    /// Set at thread exit; the accept loop reaps done connections (joins
    /// the thread, releases the fd and the object). Without reaping,
    /// every health probe — one short-lived connection each — would leak
    /// an fd and a joinable thread until stop().
    std::atomic<bool> done{false};
  };

  void accept_loop();
  /// Join and release every connection whose thread has exited.
  void reap_finished_connections();
  /// One connection's whole life: read a frame, answer it, write the
  /// reply, repeat until the client closes or the stream is poisoned.
  void serve_connection(Connection& connection);
  /// The reply frame for one request frame. Throws only when the frame
  /// itself is unusable (undecodable payload, unexpected type); a failed
  /// score or reload becomes an Error frame echoing the request's seq.
  [[nodiscard]] std::vector<std::uint8_t> answer(const Frame& frame,
                                                 bool traced);

  InferenceEngine engine_;
  common::ListenSocket listener_;
  common::Endpoint endpoint_;

  /// Raised once by drain(); the accept loop exits on it.
  std::atomic<bool> stopped_{false};
  std::atomic<std::size_t> accepted_{0};
  std::thread acceptor_;
  mutable std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace muffin::serve::rpc
