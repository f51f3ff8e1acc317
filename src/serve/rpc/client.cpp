#include "serve/rpc/client.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace muffin::serve::rpc {

namespace {

int ms(std::chrono::milliseconds d) { return static_cast<int>(d.count()); }

/// Client-side transport metrics, resolved once per process.
struct ClientMetrics {
  obs::Counter& frames_sent = obs::registry().counter("rpc.client.frames_sent");
  obs::Counter& bytes_sent = obs::registry().counter("rpc.client.bytes_sent");
  obs::Counter& frames_received =
      obs::registry().counter("rpc.client.frames_received");
  obs::Counter& bytes_received =
      obs::registry().counter("rpc.client.bytes_received");
  obs::Counter& reconnects = obs::registry().counter("rpc.client.reconnects");
  obs::Counter& deadline_expiries =
      obs::registry().counter("rpc.client.deadline_expiries");
  obs::Counter& request_failures =
      obs::registry().counter("rpc.client.request_failures");
  obs::Histogram& encode_us = obs::registry().histogram(
      "rpc.client.encode_us", obs::latency_us_buckets());
  obs::Histogram& decode_us = obs::registry().histogram(
      "rpc.client.decode_us", obs::latency_us_buckets());

  static ClientMetrics& get() {
    static ClientMetrics metrics;
    return metrics;
  }
};

double elapsed_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

RemoteShard::Metrics::Metrics(obs::Registry& registry)
    : requests(registry.counter("engine.requests")),
      batches(registry.counter("engine.batches")),
      cache_hits(registry.counter("engine.cache_hits")),
      consensus(registry.counter("engine.consensus_short_circuits")),
      head_evaluations(registry.counter("engine.head_evaluations")),
      latency_us(registry.histogram("engine.latency_us",
                                    obs::latency_us_buckets())) {}

RemoteShard::RemoteShard(const std::string& endpoint,
                         RemoteShardConfig config)
    : endpoint_(common::Endpoint::parse(endpoint)),
      config_(config),
      metrics_(telemetry_),
      batcher_({config.max_batch, config.max_delay, 0,
                "rpc.client.batcher"}) {
  MUFFIN_REQUIRE(config_.connections > 0,
                 "remote shard needs at least one connection");
  connections_.reserve(config_.connections);
  for (std::size_t c = 0; c < config_.connections; ++c) {
    connections_.push_back(std::make_unique<Connection>());
  }
  dispatcher_ = std::thread([this]() { dispatch_loop(); });
}

RemoteShard::~RemoteShard() { shutdown(); }

std::future<Prediction> RemoteShard::submit(const data::Record& record) {
  MUFFIN_REQUIRE(!stopped_.load(), "cannot submit to a stopped remote shard");
  ClientRequest request{record, Clock::now(), {},
                       obs::Tracer::instance().sample()};
  std::future<Prediction> future = request.promise.get_future();
  batcher_.push(std::move(request));
  return future;
}

void RemoteShard::shutdown() {
  if (stopped_.exchange(true)) return;
  batcher_.close();
  // The dispatcher drains queued batches (sending them if it can), then
  // exits; readers keep collecting responses for in-flight batches.
  if (dispatcher_.joinable()) dispatcher_.join();
  const Clock::time_point grace =
      Clock::now() + config_.request_timeout +
      std::chrono::milliseconds(200);
  for (const std::unique_ptr<Connection>& connection : connections_) {
    for (;;) {
      {
        const std::lock_guard<std::mutex> lock(connection->mutex);
        if (connection->pending.empty() || connection->dead) break;
      }
      if (Clock::now() >= grace) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    fail_connection(*connection, "remote shard shut down");
    if (connection->reader.joinable()) connection->reader.join();
    connection->socket.close();
  }
}

bool RemoteShard::probe() {
  // The probe is an EMPTY ScoreRequest, not a bare HealthProbe: it
  // exercises the server's whole request path — framing, decode, the
  // engine's submit gate (a stopped engine throws and comes back as an
  // Error frame), response encode — so a process that is alive but can
  // no longer serve fails its probe. It deliberately does NOT reset
  // consecutive_failures(): the counter clears only when real requests
  // succeed or the router restores the shard (reset_failures), so a
  // probe-alive/request-dead server cannot launder its failure history.
  if (fail::fires("rpc.client.probe")) return false;  // injected probe loss
  try {
    common::Socket socket =
        common::connect_endpoint(endpoint_, ms(config_.connect_timeout));
    const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
    write_frame(socket,
                encode_score_request(seq, std::span<const data::Record>{}),
                ms(config_.probe_timeout));
    const std::optional<Frame> reply =
        read_frame(socket, config_.max_frame_bytes, ms(config_.probe_timeout));
    return reply.has_value() &&
           reply->header.type == MsgType::ScoreResponse &&
           reply->header.seq == seq &&
           decode_score_response(reply->payload).empty();
  } catch (const std::exception&) {
    return false;
  }
}

void RemoteShard::reset_failures() {
  consecutive_failures_.store(0, std::memory_order_relaxed);
}

void RemoteShard::dispatch_loop() {
  for (;;) {
    std::vector<ClientRequest> batch = batcher_.next_batch();
    if (batch.empty()) return;  // closed and drained
    send_batch(std::move(batch));
  }
}

void RemoteShard::send_batch(std::vector<ClientRequest> batch) {
  ClientMetrics& metrics = ClientMetrics::get();
  bool any_traced = false;
  for (const ClientRequest& request : batch) any_traced |= request.traced;
  // Try every pooled connection once, starting at the round-robin
  // cursor; a batch only fails when no connection can be (re)established.
  for (std::size_t attempt = 0; attempt < connections_.size(); ++attempt) {
    Connection& connection =
        *connections_[next_connection_++ % connections_.size()];
    try {
      bool dead;
      {
        const std::lock_guard<std::mutex> lock(connection.mutex);
        dead = connection.dead;
      }
      if (dead) {
        // Inside the reconnect backoff window, do not dial the endpoint
        // again: sweep on to the next pooled connection (which shares
        // the shard-level window), so a fully dead shard fails the batch
        // fast — feeding consecutive_failures and the router's
        // auto-drain/retry machinery — instead of paying a connect
        // timeout per request.
        if (Clock::now() < next_connect_attempt_) continue;
        // Replace the transport only after the previous reader exited.
        if (connection.reader.joinable()) connection.reader.join();
        // A write can race the teardown and leave an entry queued after
        // the reader is gone; it belongs to the dead transport and can
        // never be answered on the new one — fail it now.
        fail_connection(connection, "connection reset before response");
        connect_attempts_.fetch_add(1, std::memory_order_relaxed);
        try {
          fail::maybe_fail("rpc.client.connect");
          connection.socket =
              common::connect_endpoint(endpoint_, ms(config_.connect_timeout));
        } catch (...) {
          note_connect_failure();
          throw;  // the outer catch sweeps this connection
        }
        connect_failures_ = 0;
        metrics.reconnects.inc();
        {
          const std::lock_guard<std::mutex> lock(connection.mutex);
          connection.dead = false;
        }
        connection.reader =
            std::thread([this, &connection]() { reader_loop(connection); });
      }

      const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
      // Encode straight from the request wrappers — no record copies on
      // the dispatch hot path.
      std::vector<const data::Record*> records;
      records.reserve(batch.size());
      for (const ClientRequest& request : batch) {
        records.push_back(&request.record);
      }
      const auto encode_start = std::chrono::steady_clock::now();
      const std::vector<std::uint8_t> frame = [&]() {
        const obs::TraceSpan encode_span(
            "rpc.client.encode", any_traced,
            any_traced ? "\"seq\":" + std::to_string(seq) : std::string());
        return encode_score_request(seq, records);
      }();
      metrics.encode_us.observe(elapsed_us(encode_start));

      // Register the in-flight batch BEFORE sending: the response can
      // arrive the instant the frame hits the wire.
      PendingBatch pending;
      pending.seq = seq;
      pending.deadline = Clock::now() + config_.request_timeout;
      pending.requests = std::move(batch);
      pending.traced = any_traced;
      {
        const std::lock_guard<std::mutex> lock(connection.mutex);
        connection.pending.push_back(std::move(pending));
      }
      try {
        const obs::TraceSpan write_span(
            "rpc.client.write", any_traced,
            any_traced ? "\"bytes\":" + std::to_string(frame.size())
                       : std::string());
        fail::maybe_fail("rpc.client.send");
        write_frame(connection.socket, frame, ms(config_.request_timeout));
        metrics.frames_sent.inc();
        metrics.bytes_sent.inc(frame.size());
      } catch (const std::exception& error) {
        // A partial frame write poisons the stream; everything pipelined
        // on this connection is undeliverable. Write failures count
        // toward auto-drain like any other failed submit (counted
        // before the promises fail, so observers see both together).
        consecutive_failures_.fetch_add(1, std::memory_order_relaxed);
        metrics.request_failures.inc();
        fail_connection(connection, error.what());
        return;
      }
      return;  // sent; the reader owns it now
    } catch (const std::exception& error) {
      // Usually a failed connect (pending empty, this is a no-op sweep);
      // but if the failure struck a live connection before the write —
      // e.g. an allocation failure while encoding — its pipelined
      // batches must fail too, not hang until shutdown.
      fail_connection(connection, error.what());
    }
  }
  consecutive_failures_.fetch_add(1, std::memory_order_relaxed);
  metrics.request_failures.inc();
  fail_batch(batch, "no connection to " + endpoint_.to_string());
}

void RemoteShard::note_connect_failure() {
  ++connect_failures_;
  const std::int64_t initial =
      std::max<std::int64_t>(1, config_.backoff_initial.count());
  const std::int64_t cap =
      std::max<std::int64_t>(initial, config_.backoff_cap.count());
  const int shift =
      static_cast<int>(std::min<std::size_t>(connect_failures_ - 1, 20));
  const std::int64_t base =
      std::min(cap, initial << shift);  // exponential, capped
  // Full jitter — U(0, base] — decorrelates the reconnect storms of many
  // clients dialing one recovering server. Deterministic per (endpoint,
  // attempt count), like every other stochastic stream in the library.
  std::uint64_t state =
      fnv1a64(endpoint_.to_string()) ^
      mix64(connect_attempts_.load(std::memory_order_relaxed));
  const std::int64_t wait = 1 + static_cast<std::int64_t>(
      counter_unit(splitmix64_next(state)) * static_cast<double>(base));
  next_connect_attempt_ = Clock::now() + std::chrono::milliseconds(wait);
}

void RemoteShard::reader_loop(Connection& connection) {
  ClientMetrics& metrics = ClientMetrics::get();
  for (;;) {
    // Exit once the shard is stopped and nothing is in flight here.
    bool has_pending;
    Clock::time_point oldest_deadline;
    {
      const std::lock_guard<std::mutex> lock(connection.mutex);
      if (connection.dead) return;
      has_pending = !connection.pending.empty();
      if (has_pending) oldest_deadline = connection.pending.front().deadline;
    }
    if (!has_pending && stopped_.load(std::memory_order_relaxed)) return;

    // Once a batch is popped it is OURS: if anything below throws, its
    // promises must still be failed explicitly — fail_connection only
    // sweeps what is left in the pending deque.
    PendingBatch batch;
    bool popped = false;
    try {
      // Short poll slices let the deadline check run even when the
      // server sends nothing at all.
      if (!connection.socket.readable(/*timeout_ms=*/50)) {
        if (has_pending && Clock::now() >= oldest_deadline) {
          metrics.deadline_expiries.inc();
          throw Error("request to " + endpoint_.to_string() +
                      " timed out after " +
                      std::to_string(config_.request_timeout.count()) + " ms");
        }
        continue;
      }
      std::optional<Frame> frame =
          read_frame(connection.socket, config_.max_frame_bytes,
                     ms(config_.request_timeout));
      if (frame.has_value()) {
        metrics.frames_received.inc();
        metrics.bytes_received.inc(kHeaderBytes + frame->payload.size());
      }
      if (!frame.has_value()) {
        // Clean EOF. Fine when idle; fatal with work in flight.
        const std::lock_guard<std::mutex> lock(connection.mutex);
        if (connection.pending.empty()) {
          connection.dead = true;
          return;
        }
        throw Error("server closed with requests in flight");
      }

      {
        const std::lock_guard<std::mutex> lock(connection.mutex);
        MUFFIN_REQUIRE(!connection.pending.empty(),
                       "response frame with nothing in flight");
        MUFFIN_REQUIRE(frame->header.seq == connection.pending.front().seq,
                       "response sequence mismatch (pipelining broken)");
        batch = std::move(connection.pending.front());
        connection.pending.pop_front();
        popped = true;
      }

      if (frame->header.type == MsgType::Error) {
        consecutive_failures_.fetch_add(1, std::memory_order_relaxed);
        metrics.request_failures.inc();
        fail_batch(batch.requests, decode_error(frame->payload));
        continue;
      }
      MUFFIN_REQUIRE(frame->header.type == MsgType::ScoreResponse,
                     "unexpected frame type from server");
      const auto decode_start = std::chrono::steady_clock::now();
      std::vector<Prediction> predictions = [&]() {
        const obs::TraceSpan decode_span(
            "rpc.client.decode", batch.traced,
            batch.traced ? "\"seq\":" + std::to_string(batch.seq)
                         : std::string());
        return decode_score_response(frame->payload);
      }();
      metrics.decode_us.observe(elapsed_us(decode_start));
      MUFFIN_REQUIRE(predictions.size() == batch.requests.size(),
                     "response row count does not match the request batch");
      deliver(std::move(batch), std::move(predictions));
      consecutive_failures_.store(0, std::memory_order_relaxed);
    } catch (const std::exception& error) {
      // Count BEFORE failing promises: a caller that observes a failed
      // future must also observe a non-zero failure count (the health
      // monitor reads it; tests pin the ordering).
      consecutive_failures_.fetch_add(1, std::memory_order_relaxed);
      metrics.request_failures.inc();
      if (popped) fail_batch(batch.requests, error.what());
      fail_connection(connection, error.what());
      return;
    }
  }
}

void RemoteShard::deliver(PendingBatch batch,
                          std::vector<Prediction> predictions) {
  const Clock::time_point now = Clock::now();
  metrics_.batches.inc();
  metrics_.requests.inc(batch.requests.size());
  obs::Tracer& tracer = obs::Tracer::instance();
  const double now_us = batch.traced ? tracer.now_us() : 0.0;
  for (std::size_t i = 0; i < batch.requests.size(); ++i) {
    metrics_.latency_us.observe(
        std::chrono::duration<double, std::micro>(now -
                                                  batch.requests[i].enqueued)
            .count());
    if (batch.requests[i].traced) {
      // Client-observed round trip: submit (incl. client batching delay)
      // to response delivery — the client-side mirror of serve.request.
      const double enqueued_us = tracer.to_us(batch.requests[i].enqueued);
      tracer.record("rpc.client.roundtrip", enqueued_us,
                    now_us - enqueued_us,
                    "\"uid\":" +
                        std::to_string(batch.requests[i].record.uid));
    }
    const Prediction& prediction = predictions[i];
    if (prediction.cached) {
      metrics_.cache_hits.inc();
    } else if (prediction.consensus) {
      metrics_.consensus.inc();
    } else {
      metrics_.head_evaluations.inc();
    }
    batch.requests[i].promise.set_value(std::move(predictions[i]));
  }
}

StatsReport RemoteShard::fetch_stats() {
  // A dedicated connection, like probe(): stats must not queue behind
  // pipelined score batches, and a failed fetch must not poison them.
  common::Socket socket =
      common::connect_endpoint(endpoint_, ms(config_.connect_timeout));
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  write_frame(socket, encode_stats_request(seq),
              ms(config_.request_timeout));
  const std::optional<Frame> reply =
      read_frame(socket, config_.max_frame_bytes,
                 ms(config_.request_timeout));
  MUFFIN_REQUIRE(reply.has_value(),
                 "server closed before answering the stats request");
  MUFFIN_REQUIRE(reply->header.type == MsgType::StatsResponse,
                 "unexpected frame type for a stats request");
  MUFFIN_REQUIRE(reply->header.seq == seq,
                 "stats response sequence mismatch");
  return decode_stats_response(reply->payload);
}

std::uint64_t RemoteShard::reload(const std::string& artifact_path) {
  common::Socket socket =
      common::connect_endpoint(endpoint_, ms(config_.connect_timeout));
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  write_frame(socket, encode_reload(seq, artifact_path),
              ms(config_.request_timeout));
  const std::optional<Frame> reply =
      read_frame(socket, config_.max_frame_bytes,
                 ms(config_.request_timeout));
  MUFFIN_REQUIRE(reply.has_value(),
                 "server closed before answering the reload request");
  MUFFIN_REQUIRE(reply->header.seq == seq,
                 "reload response sequence mismatch");
  if (reply->header.type == MsgType::Error) {
    throw Error("reload rejected by " + endpoint_.to_string() + ": " +
                decode_error(reply->payload));
  }
  MUFFIN_REQUIRE(reply->header.type == MsgType::ReloadAck,
                 "unexpected frame type for a reload request");
  return decode_reload_ack(reply->payload);
}

std::optional<StatsReport> RemoteShard::authoritative_stats() {
  try {
    return fetch_stats();
  } catch (const std::exception&) {
    // Unreachable server or a pre-Stats peer: the caller falls back to
    // this client's observed accounting. Deliberately NOT counted toward
    // consecutive_failures — stats polling must never drain a shard.
    return std::nullopt;
  }
}

void RemoteShard::fail_connection(Connection& connection,
                                  const std::string& why) {
  std::deque<PendingBatch> orphaned;
  {
    const std::lock_guard<std::mutex> lock(connection.mutex);
    connection.dead = true;
    orphaned.swap(connection.pending);
  }
  connection.socket.shutdown_both();
  for (PendingBatch& batch : orphaned) {
    fail_batch(batch.requests, why);
  }
}

void RemoteShard::fail_batch(std::vector<ClientRequest>& requests,
                             const std::string& why) {
  for (ClientRequest& request : requests) {
    try {
      request.promise.set_exception(
          std::make_exception_ptr(Error("remote shard failure: " + why)));
    } catch (const std::future_error&) {
      // Already settled (e.g. a batch that failed after partial
      // delivery); the caller has its answer, nothing to do.
    }
  }
}

}  // namespace muffin::serve::rpc
