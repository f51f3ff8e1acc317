#include "serve/rpc/server.h"

#include <chrono>
#include <string>
#include <thread>

#include "common/error.h"
#include "common/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace muffin::serve::rpc {

namespace {

/// Server-side transport metrics, resolved once per process.
struct ServerMetrics {
  obs::Counter& connections =
      obs::registry().counter("rpc.server.connections");
  obs::Gauge& open_connections =
      obs::registry().gauge("rpc.server.open_connections");
  obs::Counter& frames_received =
      obs::registry().counter("rpc.server.frames_received");
  obs::Counter& bytes_received =
      obs::registry().counter("rpc.server.bytes_received");
  obs::Counter& frames_sent = obs::registry().counter("rpc.server.frames_sent");
  obs::Counter& bytes_sent = obs::registry().counter("rpc.server.bytes_sent");
  obs::Counter& errors_sent = obs::registry().counter("rpc.server.errors_sent");
  obs::Counter& stats_requests =
      obs::registry().counter("rpc.server.stats_requests");
  obs::Counter& reload_requests =
      obs::registry().counter("rpc.server.reload_requests");
  obs::Histogram& decode_us = obs::registry().histogram(
      "rpc.server.decode_us", obs::latency_us_buckets());
  obs::Histogram& encode_us = obs::registry().histogram(
      "rpc.server.encode_us", obs::latency_us_buckets());

  static ServerMetrics& get() {
    static ServerMetrics metrics;
    return metrics;
  }
};

double elapsed_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

ShardServer::ShardServer(std::shared_ptr<const core::FusedModel> model,
                         const std::string& listen, ShardServerConfig config)
    : config_(config),
      engine_(std::move(model), config.engine),
      listener_(common::Endpoint::parse(listen), config.backlog),
      endpoint_(listener_.local()) {
  acceptor_ = std::thread([this]() { accept_loop(); });
}

ShardServer::~ShardServer() { stop(); }

std::size_t ShardServer::connections_accepted() const {
  return accepted_.load(std::memory_order_relaxed);
}

std::size_t ShardServer::open_connections() const {
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  return connections_.size();
}

void ShardServer::stop() {
  if (stopped_.exchange(true)) return;
  // interrupt() wakes a blocked accept without touching the fd; the fd
  // itself is only released after the acceptor thread is joined, so the
  // acceptor never polls a closed descriptor.
  listener_.interrupt();
  if (acceptor_.joinable()) acceptor_.join();
  listener_.close();
  // Wake every connection's reader (blocked in recv) and writer (blocked
  // on the pending queue), then join them. Promised work still drains:
  // writers deliver whatever the engine already accepted before the
  // socket went away, then bail on the send.
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const std::unique_ptr<Connection>& connection : connections_) {
      connection->socket.shutdown_both();
      {
        const std::lock_guard<std::mutex> conn_lock(connection->mutex);
        connection->closed = true;
      }
      connection->ready.notify_all();
    }
  }
  for (const std::unique_ptr<Connection>& connection : connections_) {
    if (connection->reader.joinable()) connection->reader.join();
    if (connection->writer.joinable()) connection->writer.join();
  }
  engine_.shutdown();
}

void ShardServer::drain(std::chrono::milliseconds grace) {
  // Phase 1 — stop accepting: wake and join the acceptor, release the
  // listener so the OS refuses new connections for the whole window.
  // Each operation is idempotent, so the stop() below (and the
  // destructor's) can safely repeat them. draining_ is what actually
  // terminates the accept loop here — stopped_ must stay false until
  // the in-flight frames below are given their grace window.
  draining_.store(true, std::memory_order_relaxed);
  listener_.interrupt();
  if (acceptor_.joinable()) acceptor_.join();
  listener_.close();
  // Phase 2 — finish in-flight frames: poll until every connection's
  // response FIFO is empty or the grace period runs out. Readers are
  // still up, so responses keep flowing to their clients meanwhile.
  const auto deadline = std::chrono::steady_clock::now() + grace;
  for (;;) {
    bool idle = true;
    {
      const std::lock_guard<std::mutex> lock(connections_mutex_);
      for (const std::unique_ptr<Connection>& connection : connections_) {
        const std::lock_guard<std::mutex> conn_lock(connection->mutex);
        if (!connection->pending.empty()) {
          idle = false;
          break;
        }
      }
    }
    if (idle || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // A writer pops a response before writing it, so an empty FIFO can
  // still have one frame mid-send; give it a beat before stop() shuts
  // the sockets down under it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop();
}

void ShardServer::accept_loop() {
  while (!stopped_.load(std::memory_order_relaxed) &&
         !draining_.load(std::memory_order_relaxed)) {
    // A short accept timeout keeps shutdown latency bounded without a
    // cross-thread wakeup protocol for the listener, and doubles as the
    // cadence for reaping closed connections.
    common::Socket socket = listener_.accept(/*timeout_ms=*/200);
    reap_finished_connections();
    if (!socket.valid()) continue;
    if (stopped_.load(std::memory_order_relaxed)) break;
    accepted_.fetch_add(1, std::memory_order_relaxed);
    ServerMetrics::get().connections.inc();
    auto connection = std::make_unique<Connection>();
    connection->socket = std::move(socket);
    Connection& ref = *connection;
    {
      const std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(std::move(connection));
      ServerMetrics::get().open_connections.set(
          static_cast<std::int64_t>(connections_.size()));
    }
    ref.reader = std::thread([this, &ref]() { reader_loop(ref); });
    ref.writer = std::thread([this, &ref]() { writer_loop(ref); });
  }
}

void ShardServer::reap_finished_connections() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    for (std::unique_ptr<Connection>& connection : connections_) {
      if (connection->reader_done.load(std::memory_order_acquire) &&
          connection->writer_done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(connection));
      }
    }
    std::erase_if(connections_, [](const std::unique_ptr<Connection>& c) {
      return c == nullptr;
    });
    ServerMetrics::get().open_connections.set(
        static_cast<std::int64_t>(connections_.size()));
  }
  // Join outside the lock; both threads have already signalled exit, so
  // these joins return immediately.
  for (const std::unique_ptr<Connection>& connection : finished) {
    if (connection->reader.joinable()) connection->reader.join();
    if (connection->writer.joinable()) connection->writer.join();
  }
}

void ShardServer::enqueue(Connection& connection, PendingResponse response) {
  {
    const std::lock_guard<std::mutex> lock(connection.mutex);
    connection.pending.push_back(std::move(response));
  }
  connection.ready.notify_one();
}

void ShardServer::reader_loop(Connection& connection) {
  ServerMetrics& metrics = ServerMetrics::get();
  obs::Tracer& tracer = obs::Tracer::instance();
  try {
    for (;;) {
      // Chaos seam: an injected error here looks like a poisoned stream
      // and tears this one connection down, like any malformed frame.
      fail::maybe_fail("rpc.server.recv");
      std::optional<Frame> frame =
          read_frame(connection.socket, config_.max_frame_bytes,
                     /*timeout_ms=*/-1);
      if (!frame.has_value()) break;  // client closed cleanly
      metrics.frames_received.inc();
      metrics.bytes_received.inc(kHeaderBytes + frame->payload.size());

      PendingResponse response;
      response.seq = frame->header.seq;
      // The server samples its own frames: client-side sampling decisions
      // do not travel on the wire, so each process traces independently.
      response.traced = tracer.sample();
      switch (frame->header.type) {
        case MsgType::HealthProbe:
          response.type = MsgType::HealthAck;
          break;
        case MsgType::StatsRequest: {
          // Encode NOW so the report reflects this moment, but deliver
          // through the FIFO so responses stay in request order.
          metrics.stats_requests.inc();
          response.type = MsgType::StatsResponse;
          StatsReport report;
          report.cache_entries = engine_.cache_entries();
          report.engine = engine_.metrics();
          report.process = obs::registry().snapshot();
          response.raw_frame = encode_stats_response(response.seq, report);
          break;
        }
        case MsgType::Reload: {
          // Swap NOW, on the reader: the publish is an O(1) pointer
          // swap, so blocking this connection's framing for it is
          // cheaper than a handoff, and requests already submitted keep
          // scoring on their pinned snapshots throughout. A decode
          // failure (malformed path) poisons the stream like any other
          // undecodable frame; a reload failure (missing/corrupt
          // artifact, non-advancing version) answers with an Error
          // frame and leaves the serving model untouched.
          metrics.reload_requests.inc();
          response.type = MsgType::ReloadAck;
          const std::string artifact_path = decode_reload(frame->payload);
          try {
            const std::uint64_t installed = reload(artifact_path);
            response.raw_frame = encode_reload_ack(response.seq, installed);
          } catch (const std::exception& error) {
            response.error = error.what();
          }
          break;
        }
        case MsgType::ScoreRequest: {
          response.type = MsgType::ScoreResponse;
          const auto decode_start = std::chrono::steady_clock::now();
          std::vector<data::Record> records = [&]() {
            const obs::TraceSpan decode_span(
                "rpc.server.decode", response.traced,
                response.traced ? "\"seq\":" + std::to_string(response.seq)
                                : std::string());
            return decode_score_request(frame->payload);
          }();
          metrics.decode_us.observe(elapsed_us(decode_start));
          try {
            // One atomic group enqueue per frame: the records enter the
            // engine's Batcher together (one lock, one wakeup) and
            // micro-batch with records from every other connection.
            // All-or-nothing, so a shutdown race leaves no partial
            // prefix to quiesce — the request just fails whole.
            response.futures = engine_.submit_batch(std::move(records));
          } catch (const std::exception& error) {
            response.error = error.what();
          }
          break;
        }
        default:
          // Clients never send responses/acks/errors; a peer that does is
          // not speaking the protocol.
          throw Error("unexpected frame type from client");
      }
      enqueue(connection, std::move(response));
    }
  } catch (const std::exception& error) {
    // Malformed frame or transport failure: framing is untrustworthy now.
    // Best-effort error notice, then tear the connection down.
    PendingResponse notice;
    notice.seq = 0;
    notice.error = error.what();
    enqueue(connection, std::move(notice));
  }
  {
    const std::lock_guard<std::mutex> lock(connection.mutex);
    connection.closed = true;
  }
  connection.ready.notify_all();
  connection.reader_done.store(true, std::memory_order_release);
}

void ShardServer::writer_loop(Connection& connection) {
  ServerMetrics& metrics = ServerMetrics::get();
  bool transport_ok = true;
  for (;;) {
    PendingResponse response;
    {
      std::unique_lock<std::mutex> lock(connection.mutex);
      connection.ready.wait(lock, [&connection]() {
        return !connection.pending.empty() || connection.closed;
      });
      if (connection.pending.empty()) break;  // closed and fully drained
      response = std::move(connection.pending.front());
      connection.pending.pop_front();
    }

    // Resolve the response payload outside the lock: waiting on engine
    // futures here is what preserves per-connection FIFO order while the
    // reader keeps pipelining new requests into the engine.
    std::vector<std::uint8_t> frame;
    if (!response.raw_frame.empty()) {
      frame = std::move(response.raw_frame);  // pre-encoded StatsResponse
    } else if (response.type == MsgType::HealthAck && response.error.empty()) {
      frame = encode_control(MsgType::HealthAck, response.seq);
    } else if (!response.error.empty()) {
      metrics.errors_sent.inc();
      frame = encode_error(response.seq, response.error);
    } else {
      try {
        const std::vector<Prediction> predictions =
            collect_all_or_error(std::move(response.futures));
        const auto encode_start = std::chrono::steady_clock::now();
        {
          const obs::TraceSpan encode_span(
              "rpc.server.encode", response.traced,
              response.traced ? "\"seq\":" + std::to_string(response.seq)
                              : std::string());
          frame = encode_score_response(response.seq, predictions);
        }
        metrics.encode_us.observe(elapsed_us(encode_start));
      } catch (const std::exception& error) {
        // collect_all_or_error already awaited every future, so the
        // whole request can be failed with one Error frame.
        metrics.errors_sent.inc();
        frame = encode_error(response.seq, error.what());
      }
    }

    if (!transport_ok) continue;  // keep draining futures, stop writing
    try {
      const obs::TraceSpan write_span(
          "rpc.server.write", response.traced,
          response.traced ? "\"bytes\":" + std::to_string(frame.size())
                          : std::string());
      fail::maybe_fail("rpc.server.send");
      write_frame(connection.socket, frame, config_.write_timeout_ms);
      metrics.frames_sent.inc();
      metrics.bytes_sent.inc(frame.size());
    } catch (const std::exception&) {
      // Client gone or wedged: stop writing, but keep consuming pending
      // future-sets so engine promises are all observed before join.
      transport_ok = false;
      connection.socket.shutdown_both();
    }
  }
  connection.writer_done.store(true, std::memory_order_release);
}

}  // namespace muffin::serve::rpc
