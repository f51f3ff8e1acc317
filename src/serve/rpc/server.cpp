#include "serve/rpc/server.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

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

/// Deadline for writing one response frame.
constexpr int kWriteTimeoutMs = 10'000;

double elapsed_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

ShardServer::ShardServer(std::shared_ptr<const core::FusedModel> model,
                         const std::string& listen, ShardServerConfig config)
    : engine_(std::move(model),
              EngineConfig{.initial_model_version =
                               config.initial_model_version}),
      listener_(common::Endpoint::parse(listen)),
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

void ShardServer::drain(std::chrono::milliseconds grace) {
  if (stopped_.exchange(true)) return;
  // 1. Stop accepting: wake and join the acceptor (it exits on stopped_),
  // then release the listener so the OS refuses new connections. The fd
  // is only released after the join, so the acceptor never polls a
  // closed descriptor.
  listener_.interrupt();
  if (acceptor_.joinable()) acceptor_.join();
  listener_.close();
  // 2. Answer what clients already sent: poll until every live connection
  // is idle, or the grace period runs out. Readability is checked before
  // busy — a thread raises busy before it consumes a frame's first byte,
  // so a frame in hand is always seen as one or the other. The acceptor
  // (the only reaper) is joined, so the list is stable from here on.
  const auto all_idle = [this]() {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    return std::all_of(
        connections_.begin(), connections_.end(),
        [](const std::unique_ptr<Connection>& connection) {
          return connection->done.load() ||
                 (!connection->socket.readable(0) && !connection->busy.load());
        });
  };
  const auto deadline = std::chrono::steady_clock::now() + grace;
  while (std::chrono::steady_clock::now() < deadline && !all_idle()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // 3. Shut every socket (waking a thread blocked on its next frame, or
  // failing a reply still in progress), join the threads, release the
  // connections, then shut the engine down.
  std::vector<std::unique_ptr<Connection>> connections;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    connections.swap(connections_);
    ServerMetrics::get().open_connections.set(0);
  }
  for (const std::unique_ptr<Connection>& connection : connections) {
    connection->socket.shutdown_both();
  }
  for (const std::unique_ptr<Connection>& connection : connections) {
    if (connection->thread.joinable()) connection->thread.join();
  }
  engine_.shutdown();
}

void ShardServer::accept_loop() {
  while (!stopped_.load(std::memory_order_relaxed)) {
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
    ref.thread = std::thread([this, &ref]() { serve_connection(ref); });
  }
}

void ShardServer::reap_finished_connections() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    for (std::unique_ptr<Connection>& connection : connections_) {
      if (connection->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(connection));
      }
    }
    std::erase_if(connections_, [](const std::unique_ptr<Connection>& c) {
      return c == nullptr;
    });
    ServerMetrics::get().open_connections.set(
        static_cast<std::int64_t>(connections_.size()));
  }
  // Join outside the lock; each thread has already signalled exit, so
  // these joins return immediately.
  for (const std::unique_ptr<Connection>& connection : finished) {
    if (connection->thread.joinable()) connection->thread.join();
  }
}

void ShardServer::serve_connection(Connection& connection) {
  ServerMetrics& metrics = ServerMetrics::get();
  obs::Tracer& tracer = obs::Tracer::instance();
  bool open = true;
  while (open) {
    std::vector<std::uint8_t> reply;
    bool traced = false;
    try {
      // Wait for the next frame without consuming it, so busy goes up
      // before its first byte leaves the socket (see drain()).
      (void)connection.socket.readable(/*timeout_ms=*/-1);
      connection.busy.store(true);
      // Chaos seam: an injected error here looks like a poisoned stream
      // and tears this one connection down, like any malformed frame.
      fail::maybe_fail("rpc.server.recv");
      const std::optional<Frame> frame =
          read_frame(connection.socket, kDefaultMaxFrameBytes,
                     /*timeout_ms=*/-1);
      if (!frame.has_value()) break;  // client closed cleanly
      metrics.frames_received.inc();
      metrics.bytes_received.inc(kHeaderBytes + frame->payload.size());
      // The server samples its own frames: client-side sampling decisions
      // do not travel on the wire, so each process traces independently.
      traced = tracer.sample();
      reply = answer(*frame, traced);
    } catch (const std::exception& error) {
      // Malformed frame or transport failure: framing is untrustworthy
      // now. Best-effort error notice, then tear the connection down.
      metrics.errors_sent.inc();
      reply = encode_error(/*seq=*/0, error.what());
      open = false;
    }
    try {
      const obs::TraceSpan write_span(
          "rpc.server.write", traced,
          traced ? "\"bytes\":" + std::to_string(reply.size())
                 : std::string());
      fail::maybe_fail("rpc.server.send");
      write_frame(connection.socket, reply, kWriteTimeoutMs);
      metrics.frames_sent.inc();
      metrics.bytes_sent.inc(reply.size());
    } catch (const std::exception&) {
      break;  // client gone or wedged
    }
    connection.busy.store(false);
  }
  connection.socket.shutdown_both();
  connection.busy.store(false);
  connection.done.store(true, std::memory_order_release);
}

std::vector<std::uint8_t> ShardServer::answer(const Frame& frame,
                                              bool traced) {
  ServerMetrics& metrics = ServerMetrics::get();
  const std::uint64_t seq = frame.header.seq;
  switch (frame.header.type) {
    case MsgType::StatsRequest: {
      metrics.stats_requests.inc();
      StatsReport report;
      report.cache_entries = engine_.cache_entries();
      report.engine = engine_.metrics();
      report.process = obs::registry().snapshot();
      return encode_stats_response(seq, report);
    }
    case MsgType::Reload: {
      // The publish is an O(1) pointer swap, so doing it on this
      // connection's thread costs its framing nothing, and frames being
      // scored on other connections finish on their pinned snapshots. A
      // malformed path poisons the stream like any other undecodable
      // frame; a reload failure (missing/corrupt artifact, non-advancing
      // version) is an Error frame and leaves the serving model untouched.
      metrics.reload_requests.inc();
      const std::string artifact_path = decode_reload(frame.payload);
      try {
        return encode_reload_ack(seq, reload(artifact_path));
      } catch (const std::exception& error) {
        metrics.errors_sent.inc();
        return encode_error(seq, error.what());
      }
    }
    case MsgType::ScoreRequest: {
      const auto decode_start = std::chrono::steady_clock::now();
      const std::vector<data::Record> records = [&]() {
        const obs::TraceSpan decode_span(
            "rpc.server.decode", traced,
            traced ? "\"seq\":" + std::to_string(seq) : std::string());
        return decode_score_request(frame.payload);
      }();
      metrics.decode_us.observe(elapsed_us(decode_start));
      try {
        // The frame is the batch: scored at once, on this thread,
        // all-or-error.
        const std::vector<Prediction> predictions =
            engine_.predict_batch(records);
        const auto encode_start = std::chrono::steady_clock::now();
        std::vector<std::uint8_t> reply;
        {
          const obs::TraceSpan encode_span(
              "rpc.server.encode", traced,
              traced ? "\"seq\":" + std::to_string(seq) : std::string());
          reply = encode_score_response(seq, predictions);
        }
        metrics.encode_us.observe(elapsed_us(encode_start));
        return reply;
      } catch (const std::exception& error) {
        metrics.errors_sent.inc();
        return encode_error(seq, error.what());
      }
    }
    default:
      // Clients never send responses/acks/errors; a peer that does is
      // not speaking the protocol.
      throw Error("unexpected frame type from client");
  }
}

}  // namespace muffin::serve::rpc
