#include "serve/rpc/client.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <iterator>
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

/// Make the eventfd `wake` readable, ending its thread's poll().
void notify(const common::Socket& wake) {
  const std::uint64_t one = 1;
  // Fails only if the counter neared 2^64 — the thread is awake then.
  [[maybe_unused]] const ssize_t written = ::write(wake.fd(), &one, sizeof(one));
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
      metrics_(telemetry_) {
  MUFFIN_REQUIRE(config_.connections > 0,
                 "remote shard needs at least one connection");
  MUFFIN_REQUIRE(config_.max_batch > 0, "remote shard needs max_batch >= 1");
  for (std::size_t c = 0; c < config_.connections; ++c) {
    auto connection = std::make_unique<Connection>();
    connection->wake =
        common::Socket(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
    MUFFIN_REQUIRE(connection->wake.valid(), "eventfd failed");
    connections_.push_back(std::move(connection));
  }
  // Threads start once the pool is whole: each reads its siblings' state.
  for (const std::unique_ptr<Connection>& connection : connections_) {
    Connection& ref = *connection;
    ref.thread = std::thread([this, &ref]() { connection_loop(ref); });
  }
}

RemoteShard::~RemoteShard() { shutdown(); }

std::future<Prediction> RemoteShard::submit(const data::Record& record) {
  ClientRequest request{record, Clock::now(), {},
                       obs::Tracer::instance().sample()};
  std::future<Prediction> future = request.promise.get_future();
  Connection* woken = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    MUFFIN_REQUIRE(!stopped_, "cannot submit to a stopped remote shard");
    // Work already queued has a thread bound to look at it (woken for it,
    // or busy and looking next), so a burst of submits costs one wake-up.
    if (queue_.empty()) woken = claim_waiter();
    queue_.push_back(std::move(request));
  }
  if (woken != nullptr) notify(woken->wake);
  return future;
}

RemoteShard::Connection* RemoteShard::claim_waiter() {
  Connection* woken = nullptr;
  for (const std::unique_ptr<Connection>& connection : connections_) {
    if (connection->waiting &&
        (woken == nullptr || (connection->open && !woken->open))) {
      woken = connection.get();
    }
  }
  if (woken != nullptr) woken->waiting = false;
  return woken;
}

void RemoteShard::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  // Each thread sends and answers what is already queued, then exits.
  for (const std::unique_ptr<Connection>& connection : connections_) {
    notify(connection->wake);
  }
  for (const std::unique_ptr<Connection>& connection : connections_) {
    connection->thread.join();
  }
}

bool RemoteShard::probe() {
  // An EMPTY ScoreRequest runs the server's whole request path (framing,
  // decode, the engine's stopped check, response encode), so a process
  // that is alive but can no longer serve fails its probe. It never
  // resets consecutive_failures() (see the header).
  if (fail::fires("rpc.client.probe")) return false;  // injected probe loss
  try {
    common::Socket socket =
        common::connect_endpoint(endpoint_, ms(config_.connect_timeout));
    const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
    write_frame(socket,
                encode_score_request(seq, std::span<const data::Record>{}),
                ms(config_.probe_timeout));
    const std::optional<Frame> reply =
        read_frame(socket, kDefaultMaxFrameBytes, ms(config_.probe_timeout));
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

void RemoteShard::connection_loop(Connection& connection) {
  const std::string timed_out =
      "request to " + endpoint_.to_string() + " timed out after " +
      std::to_string(config_.request_timeout.count()) + " ms";
  for (;;) {
    const Clock::time_point now = Clock::now();
    if (!connection.in_flight.empty() &&
        now >= connection.in_flight.front().deadline) {
      ClientMetrics::get().deadline_expiries.inc();
      count_failure();
      fail_connection(connection, timed_out);
    }
    std::vector<ClientRequest> batch;
    std::string why;  // when set, fail `batch` for this reason
    bool dial_now = false;
    Connection* woken = nullptr;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      connection.waiting = false;
      const bool slot = connection.in_flight.size() < kMaxInFlight;
      const auto take = [&]() {
        const auto end = queue_.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(queue_.size(),
                                                       config_.max_batch));
        batch.assign(std::make_move_iterator(queue_.begin()),
                     std::make_move_iterator(end));
        queue_.erase(queue_.begin(), end);
      };
      while (!queue_.empty() &&
             now - queue_.front().enqueued >= config_.request_timeout) {
        batch.push_back(std::move(queue_.front()));  // failed unsent
        queue_.pop_front();
      }
      if (!batch.empty()) {
        ClientMetrics::get().deadline_expiries.inc();
        why = timed_out;
      } else if (slot && !queue_.empty()) {
        if (connection.open) {
          take();
          if (!queue_.empty()) woken = claim_waiter();  // pass the rest on
        } else if (!stopped_ && now >= next_connect_attempt_) {
          dial_now = true;
        } else if (std::none_of(connections_.begin(), connections_.end(),
                                [](const std::unique_ptr<Connection>& c) {
                                  return c->open;
                                })) {
          // Inside the backoff window (or shut down) with no open
          // sibling: fail fast rather than queue behind a dead endpoint.
          take();
          why = "no connection to " + endpoint_.to_string();
        }
      }  // otherwise an open sibling takes the work
      if (batch.empty() && !dial_now) {
        if (stopped_ && connection.in_flight.empty()) return;
        connection.waiting = slot;
      }
    }
    if (woken != nullptr) notify(woken->wake);
    if (!why.empty()) {
      count_failure();
      fail_batch(batch, why);
    } else if (dial_now) {
      dial(connection);
    } else if (!batch.empty()) {
      send(connection, std::move(batch));
    } else {
      wait(connection);
    }
  }
}

void RemoteShard::dial(Connection& connection) {
  connect_attempts_.fetch_add(1, std::memory_order_relaxed);
  try {
    fail::maybe_fail("rpc.client.connect");
    connection.socket =
        common::connect_endpoint(endpoint_, ms(config_.connect_timeout));
  } catch (const std::exception&) {
    const std::lock_guard<std::mutex> lock(mutex_);
    note_connect_failure();
    return;
  }
  ClientMetrics::get().reconnects.inc();
  const std::lock_guard<std::mutex> lock(mutex_);
  connect_failures_ = 0;
  connection.open = true;
}

void RemoteShard::send(Connection& connection,
                       std::vector<ClientRequest> batch) {
  ClientMetrics& metrics = ClientMetrics::get();
  PendingBatch pending;
  pending.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  pending.requests = std::move(batch);
  pending.deadline =
      pending.requests.front().enqueued + config_.request_timeout;
  for (const ClientRequest& request : pending.requests) {
    pending.traced |= request.traced;
  }
  try {
    // Encode straight from the request wrappers — no record copies.
    std::vector<const data::Record*> records;
    records.reserve(pending.requests.size());
    for (const ClientRequest& request : pending.requests) {
      records.push_back(&request.record);
    }
    const auto encode_start = Clock::now();
    const std::vector<std::uint8_t> frame = [&]() {
      const obs::TraceSpan encode_span(
          "rpc.client.encode", pending.traced,
          pending.traced ? "\"seq\":" + std::to_string(pending.seq)
                         : std::string());
      return encode_score_request(pending.seq, records);
    }();
    metrics.encode_us.observe(elapsed_us(encode_start));
    const obs::TraceSpan write_span(
        "rpc.client.write", pending.traced,
        pending.traced ? "\"bytes\":" + std::to_string(frame.size())
                       : std::string());
    fail::maybe_fail("rpc.client.send");
    write_frame(connection.socket, frame, ms(config_.request_timeout));
    metrics.frames_sent.inc();
    metrics.bytes_sent.inc(frame.size());
  } catch (const std::exception& error) {
    // A partial frame write poisons the stream; everything pipelined on
    // this connection is undeliverable.
    count_failure();
    fail_batch(pending.requests, error.what());
    fail_connection(connection, error.what());
    return;
  }
  connection.in_flight.push_back(std::move(pending));
}

void RemoteShard::wait(Connection& connection) {
  int timeout_ms = -1;
  if (!connection.in_flight.empty()) {
    timeout_ms = static_cast<int>(std::max<std::int64_t>(
        0, std::chrono::ceil<std::chrono::milliseconds>(
               connection.in_flight.front().deadline - Clock::now())
               .count()));
  }
  // An open socket is watched even while idle, so a server that closed
  // it between batches is seen (EOF) before the next batch is sent.
  pollfd fds[2] = {
      {connection.wake.fd(), POLLIN, 0},
      {connection.open ? connection.socket.fd() : -1, POLLIN, 0}};
  (void)::poll(fds, 2, timeout_ms);  // EINTR: nothing ready; loop again
  if (fds[0].revents != 0) {
    std::uint64_t wakes = 0;
    [[maybe_unused]] const ssize_t drained =
        ::read(connection.wake.fd(), &wakes, sizeof(wakes));
  }
  if (fds[1].revents == 0) return;  // a wake-up or a deadline: loop again
  try {
    read_reply(connection);
  } catch (const std::exception& error) {
    count_failure();
    fail_connection(connection, error.what());
  }
}

void RemoteShard::read_reply(Connection& connection) {
  ClientMetrics& metrics = ClientMetrics::get();
  const std::optional<Frame> frame = read_frame(
      connection.socket, kDefaultMaxFrameBytes, ms(config_.request_timeout));
  if (!frame.has_value()) {
    // Clean EOF: fine when idle (the next batch redials), else fatal.
    MUFFIN_REQUIRE(connection.in_flight.empty(),
                   "server closed with requests in flight");
    fail_connection(connection, "server closed the connection");
    return;
  }
  metrics.frames_received.inc();
  metrics.bytes_received.inc(kHeaderBytes + frame->payload.size());
  MUFFIN_REQUIRE(!connection.in_flight.empty(),
                 "response frame with nothing in flight");
  // The batch stays in flight until its reply is decoded: if anything
  // below throws, fail_connection fails it with the rest.
  PendingBatch& oldest = connection.in_flight.front();
  MUFFIN_REQUIRE(frame->header.seq == oldest.seq,
                 "response sequence mismatch (pipelining broken)");
  if (frame->header.type == MsgType::Error) {
    const std::string why = decode_error(frame->payload);
    count_failure();
    fail_batch(oldest.requests, why);
    connection.in_flight.pop_front();
    return;
  }
  MUFFIN_REQUIRE(frame->header.type == MsgType::ScoreResponse,
                 "unexpected frame type from server");
  const auto decode_start = Clock::now();
  std::vector<Prediction> predictions = [&]() {
    const obs::TraceSpan decode_span(
        "rpc.client.decode", oldest.traced,
        oldest.traced ? "\"seq\":" + std::to_string(oldest.seq)
                      : std::string());
    return decode_score_response(frame->payload);
  }();
  metrics.decode_us.observe(elapsed_us(decode_start));
  MUFFIN_REQUIRE(predictions.size() == oldest.requests.size(),
                 "response row count does not match the request batch");
  PendingBatch batch = std::move(oldest);
  connection.in_flight.pop_front();
  deliver(std::move(batch), std::move(predictions));
  consecutive_failures_.store(0, std::memory_order_relaxed);
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
      // Client-observed round trip: submit (incl. time queued for a free
      // slot) to response delivery — the client-side mirror of
      // serve.request.
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
      read_frame(socket, kDefaultMaxFrameBytes, ms(config_.request_timeout));
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
      read_frame(socket, kDefaultMaxFrameBytes, ms(config_.request_timeout));
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

void RemoteShard::count_failure() {
  consecutive_failures_.fetch_add(1, std::memory_order_relaxed);
  ClientMetrics::get().request_failures.inc();
}

void RemoteShard::fail_connection(Connection& connection,
                                  const std::string& why) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    connection.open = false;
  }
  connection.socket.close();
  for (PendingBatch& batch : connection.in_flight) {
    fail_batch(batch.requests, why);
  }
  connection.in_flight.clear();
}

void RemoteShard::fail_batch(std::vector<ClientRequest>& requests,
                             const std::string& why) {
  for (ClientRequest& request : requests) {
    request.promise.set_exception(
        std::make_exception_ptr(Error("remote shard failure: " + why)));
  }
}

}  // namespace muffin::serve::rpc
