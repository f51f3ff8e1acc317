#include "serve/engine.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <string>

#include "common/error.h"
#include "common/failpoint.h"
#include "common/parallel_for.h"
#include "data/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace muffin::serve {

namespace {

/// Process-level model lifecycle metrics: hot-swaps performed and the
/// version most recently published by any engine in this process. They
/// stay out of the per-engine registries because a sum of versions means
/// nothing. For the one-engine-per-process shard server this gauge IS the
/// shard's live version; a multi-engine process reads per-engine
/// model_version().
struct LifecycleMetrics {
  obs::Counter& swaps = obs::registry().counter("serve.swaps_total");
  obs::Gauge& model_version = obs::registry().gauge("serve.model_version");

  static LifecycleMetrics& get() {
    static LifecycleMetrics metrics;
    return metrics;
  }
};

double micros(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

}  // namespace

InferenceEngine::Metrics::Metrics(obs::Registry& registry)
    : requests(registry.counter("engine.requests")),
      batches(registry.counter("engine.batches")),
      cache_hits(registry.counter("engine.cache_hits")),
      cache_misses(registry.counter("engine.cache_misses")),
      consensus(registry.counter("engine.consensus_short_circuits")),
      head_evaluations(registry.counter("engine.head_evaluations")),
      batch_size(registry.histogram("engine.batch_size",
                                    obs::batch_size_buckets())),
      latency_us(registry.histogram("engine.latency_us",
                                    obs::latency_us_buckets())),
      shed(registry.counter("serve.shed")),
      shed_latency_us(registry.histogram("serve.shed_latency_us",
                                         obs::latency_us_buckets())),
      deadline_drops(registry.counter("serve.deadline_drops")),
      memo_bytes(registry.gauge("serve.result_memo_bytes")),
      queue_depth(obs::registry().gauge("engine.batcher.depth")) {}

InferenceEngine::InferenceEngine(std::shared_ptr<const core::FusedModel> model,
                                 EngineConfig config)
    : registry_(std::move(model), config.initial_model_version),
      config_(config),
      num_classes_(registry_.current()->model->num_classes()),
      telemetry_(obs::registry()),
      metrics_(telemetry_),
      pool_(common::global_pool()),
      memo_(config.result_cache_capacity, num_classes_,
            tensor::active_quant_mode()) {
  MUFFIN_REQUIRE(config_.max_batch > 0, "engine needs max_batch >= 1");
  LifecycleMetrics::get().model_version.set(
      static_cast<std::int64_t>(registry_.version()));
}

InferenceEngine::~InferenceEngine() { shutdown(); }

std::future<Prediction> InferenceEngine::submit(const data::Record& record) {
  // Before any accounting: an injected submit fault must look like the
  // submit never happened (the router's failover path depends on that).
  fail::maybe_fail("serve.engine.submit");
  Request request{record, Clock::now(), {},
                  obs::Tracer::instance().sample()};
  std::future<Prediction> future = request.promise.get_future();
  // Requests are counted when a batch picks them up (process_batch), so
  // a shed or a submit that loses the race with shutdown() is never
  // counted at all.
  std::size_t queued = 0;
  bool admitted = false;
  std::vector<Request> batch;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    MUFFIN_REQUIRE(!stopped_, "cannot submit to a stopped engine");
    queued = queue_.size();
    admitted = config_.max_queue == 0 || queued < config_.max_queue;
    if (admitted) {
      queue_.push_back(std::move(request));
      metrics_.queue_depth.add(1);
      batch = take_batch_locked();
    }
  }
  if (!admitted) {
    // Admission bound reached: the request never entered the engine.
    metrics_.shed.inc();
    metrics_.shed_latency_us.observe(micros(Clock::now() - request.enqueued));
    throw Overloaded("engine queue full (" + std::to_string(queued) + " of " +
                     std::to_string(config_.max_queue) +
                     " queued): request shed");
  }
  if (!batch.empty()) hand_off(std::move(batch));
  return future;
}

Prediction InferenceEngine::predict(const data::Record& record) {
  return submit(record).get();
}

std::vector<Prediction> InferenceEngine::predict_batch(
    std::span<const data::Record> records) {
  // Before any accounting, as in submit(): an injected submit fault must
  // look like the call never happened.
  fail::maybe_fail("serve.engine.submit");
  {
    // Checked and counted under one lock, so shutdown() either rejects
    // this call or waits for it.
    const std::lock_guard<std::mutex> lock(mutex_);
    MUFFIN_REQUIRE(!stopped_, "cannot submit to a stopped engine");
    ++calls_;
  }
  const auto finish_call = [this]() {
    const std::lock_guard<std::mutex> lock(mutex_);
    --calls_;
    if (stopped_) wake_.notify_all();  // shutdown() may wait for this call
  };
  std::vector<Prediction> results;
  try {
    if (!records.empty()) {
      const Clock::time_point start = Clock::now();
      const bool traced = obs::Tracer::instance().sample();
      metrics_.requests.inc(records.size());
      results = score(records, traced);
      const double latency_us = micros(Clock::now() - start);
      for (std::size_t i = 0; i < results.size(); ++i) {
        metrics_.latency_us.observe(latency_us);
      }
    }
  } catch (...) {
    finish_call();
    throw;
  }
  finish_call();
  return results;
}

void InferenceEngine::shutdown() {
  // Nothing to drain: while the queue holds requests, one of the engine's
  // batches is running or handed off, and it hands on the rest.
  std::unique_lock<std::mutex> lock(mutex_);
  stopped_ = true;
  wake_.wait(lock, [this]() {
    return queue_.empty() && running_ == 0 && calls_ == 0;
  });
}

std::uint64_t InferenceEngine::swap_model(
    std::shared_ptr<const core::FusedModel> model, std::uint64_t version) {
  MUFFIN_REQUIRE(model != nullptr, "cannot swap in a null model");
  MUFFIN_REQUIRE(model->num_classes() == num_classes_,
                 "swapped model changes the serving shape (" +
                     std::to_string(model->num_classes()) + " classes vs " +
                     std::to_string(num_classes_) + ")");
  // Chaos seam: an injected error models a corrupt artifact discovered
  // at publish time — the swap fails atomically, traffic never notices.
  fail::maybe_fail("serve.engine.swap");
  const std::shared_ptr<const ModelSnapshot> installed =
      registry_.publish(std::move(model), version);
  swaps_.fetch_add(1, std::memory_order_relaxed);
  LifecycleMetrics& lifecycle = LifecycleMetrics::get();
  lifecycle.swaps.inc();
  lifecycle.model_version.set(static_cast<std::int64_t>(installed->version));
  // No flush, no pause: in-flight batches hold their own snapshot pins,
  // and version-keyed memo entries from older versions die on first
  // lookup.
  return installed->version;
}

bool InferenceEngine::may_dispatch_locked() const {
  return !queue_.empty() &&
         (running_ == 0 ||
          (queue_.size() >= config_.max_batch && running_ < pool_.size()));
}

std::vector<InferenceEngine::Request> InferenceEngine::take_batch_locked() {
  if (!may_dispatch_locked()) return {};
  const auto end = queue_.begin() + static_cast<std::ptrdiff_t>(std::min(
                                        queue_.size(), config_.max_batch));
  std::vector<Request> batch(std::make_move_iterator(queue_.begin()),
                             std::make_move_iterator(end));
  queue_.erase(queue_.begin(), end);
  metrics_.queue_depth.add(-static_cast<std::int64_t>(batch.size()));
  ++running_;
  return batch;
}

void InferenceEngine::hand_off(std::vector<Request> batch) {
  // The future is intentionally dropped: results and failures reach the
  // caller through the per-request promises, not the job future.
  (void)pool_.submit([this, b = std::move(batch)]() mutable {
    process_batch(std::move(b));
    std::vector<Request> next;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --running_;
      next = take_batch_locked();
      // Notify while holding the mutex: shutdown() destroys this engine as
      // soon as its wait observes nothing left, so an unlocked notify here
      // could land on an already-destroyed condition variable (caught by
      // TSan as pthread_cond_broadcast vs pthread_cond_destroy).
      if (next.empty() && stopped_) wake_.notify_all();
    }
    // The next batch goes to the back of the pool's queue, not onto this
    // worker: a saturated engine must leave the pool to other jobs.
    if (!next.empty()) hand_off(std::move(next));
  });
}

void InferenceEngine::process_batch(std::vector<Request> batch) {
  // Admission is counted here, before the deadline filter, so every
  // request that will ever be timed (or dropped) is already counted.
  metrics_.requests.inc(batch.size());
  // Deadline propagation: requests that overstayed their deadline in the
  // queue are failed here, before any scoring work is spent on them. A
  // backlogged engine thus spends its cycles only on answers someone is
  // still waiting for.
  if (config_.deadline.count() > 0) {
    const Clock::time_point cutoff = Clock::now() - config_.deadline;
    std::vector<Request> live;
    live.reserve(batch.size());
    for (Request& request : batch) {
      if (request.enqueued < cutoff) {
        metrics_.deadline_drops.inc();
        request.promise.set_exception(std::make_exception_ptr(
            DeadlineExceeded("request deadline exceeded before scoring")));
      } else {
        live.push_back(std::move(request));
      }
    }
    batch = std::move(live);
    if (batch.empty()) return;
  }
  const std::size_t n = batch.size();
  // Tracing: sampled requests emit their queue wait (enqueue -> batch
  // formation) and end-to-end serve.request spans; the core adds one
  // serve.batch span if any request in the batch was sampled.
  obs::Tracer& tracer = obs::Tracer::instance();
  bool any_traced = false;
  for (const Request& request : batch) any_traced |= request.traced;
  if (any_traced) {
    const double batch_start_us = tracer.now_us();
    for (const Request& request : batch) {
      if (!request.traced) continue;
      const double enqueued_us = tracer.to_us(request.enqueued);
      tracer.record("serve.queue", enqueued_us, batch_start_us - enqueued_us,
                    "\"uid\":" + std::to_string(request.record.uid));
    }
  }
  // The core scores one contiguous span; the records move out of their
  // Request wrappers (only the uid is read again, for tracing).
  std::vector<data::Record> records;
  records.reserve(n);
  for (Request& request : batch) records.push_back(std::move(request.record));
  std::size_t delivered = 0;
  try {
    std::vector<Prediction> results = score(records, any_traced);
    // Deliver results and account latency.
    const Clock::time_point now = Clock::now();
    const obs::TraceSpan reply_span("serve.reply", any_traced);
    const double now_us = any_traced ? tracer.to_us(now) : 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      metrics_.latency_us.observe(micros(now - batch[i].enqueued));
      if (batch[i].traced) {
        const double enqueued_us = tracer.to_us(batch[i].enqueued);
        tracer.record("serve.request", enqueued_us, now_us - enqueued_us,
                      "\"uid\":" + std::to_string(records[i].uid) +
                          ",\"cached\":" + (results[i].cached ? "true"
                                                             : "false"));
      }
      batch[i].promise.set_value(std::move(results[i]));
      ++delivered;
    }
  } catch (...) {
    for (std::size_t i = delivered; i < n; ++i) {
      batch[i].promise.set_exception(std::current_exception());
    }
  }
}

std::vector<Prediction> InferenceEngine::score(
    std::span<const data::Record> records, bool traced) {
  const std::size_t n = records.size();
  metrics_.batches.inc();
  metrics_.batch_size.observe(static_cast<double>(n));
  const obs::TraceSpan batch_span(
      "serve.batch", traced,
      traced ? "\"batch_size\":" + std::to_string(n) : std::string());
  std::vector<Prediction> results(n);
  // Sized before the memo lock is taken: a hit decodes into it, a miss
  // copies its fused row into it.
  for (Prediction& prediction : results) {
    prediction.scores.resize(num_classes_);
  }
  // Epoch pin: this batch scores — and is memoized — entirely on one
  // model snapshot, no matter how many swaps land while it runs. The
  // shared_ptr hold keeps the pinned version fully alive until the last
  // in-flight batch on it completes.
  const std::shared_ptr<const ModelSnapshot> pinned = registry_.current();
  // Chaos seam: an injected error here fails the whole batch (the
  // all-or-error contract under test); an injected delay models a slow
  // scoring pass.
  fail::maybe_fail("serve.engine.score");

  // 1. Serve repeats from the result memo, under one lock for the whole
  // batch. Lookups are keyed by (model version, uid): entries written by
  // other versions miss.
  std::vector<std::size_t> misses;
  misses.reserve(n);
  {
    const std::lock_guard<std::mutex> lock(memo_mutex_);
    for (std::size_t i = 0; i < n; ++i) {
      Prediction& prediction = results[i];
      const std::optional<ResultMemo::Hit> hit =
          memo_.lookup(records[i].uid, pinned->version, prediction.scores);
      if (!hit) {
        misses.push_back(i);
        continue;
      }
      prediction.predicted = hit->predicted;
      prediction.consensus = hit->consensus;
      prediction.cached = true;
      prediction.model_version = pinned->version;
    }
  }
  metrics_.cache_hits.inc(n - misses.size());
  metrics_.cache_misses.inc(misses.size());
  if (misses.empty()) return results;

  // 2. Body scores for the misses as one record span through the shared
  // gather (every body model's score_batch override over the whole
  // sub-batch, written in the ScoreCache gather layout). When every row
  // missed, that span is the input itself; otherwise the miss records
  // are copied out once per batch — amortized across all body models and
  // small next to the scoring itself.
  std::vector<data::Record> miss_copies;
  std::span<const data::Record> miss_records = records;
  if (misses.size() < n) {
    miss_copies.reserve(misses.size());
    for (const std::size_t i : misses) miss_copies.push_back(records[i]);
    miss_records = miss_copies;
  }
  const core::FusedModel& model = *pinned->model;
  const std::size_t body_size = model.body().size();
  const tensor::Matrix gathered = [&]() {
    const obs::TraceSpan span(
        "serve.score_batch", traced,
        traced ? "\"rows\":" + std::to_string(misses.size()) : std::string());
    return core::gather_body_scores(model.body(), num_classes_, miss_records);
  }();

  // 3. Row-wise consensus gate + one batched head forward over the
  // disagreement rows, on the pinned version's head. Bit-identical to
  // FusedModel::scores by construction: fuse_gathered_batch rows match
  // core::fuse_gathered.
  core::FusedBatch fused = [&]() {
    const obs::TraceSpan span("serve.fuse", traced);
    return core::fuse_gathered_batch(gathered, model.head(), body_size,
                                     num_classes_,
                                     model.head_only_on_disagreement());
  }();
  metrics_.consensus.inc(misses.size() - fused.head_rows);
  metrics_.head_evaluations.inc(fused.head_rows);
  // 4. Canonicalize-on-miss, outside the memo lock: each reply carries the
  // decode of exactly the bytes its memo entry stores (a copy when the
  // memo mode is off), so a later hit for this uid replies bit-identically
  // and nothing is ever re-quantized. Disabled memos canonicalize too.
  const std::size_t stride = memo_.stride();
  const auto encoded =
      std::make_unique_for_overwrite<std::byte[]>(misses.size() * stride);
  const auto encoded_reply = [&](std::size_t k) {
    return std::span<std::byte>(encoded.get() + k * stride,
                                memo_.reply_bytes());
  };
  for (std::size_t k = 0; k < misses.size(); ++k) {
    Prediction& prediction = results[misses[k]];
    const auto row = fused.scores.row(k);
    std::copy(row.begin(), row.end(), prediction.scores.begin());
    prediction.consensus = fused.consensus[k];
    prediction.model_version = pinned->version;
    memo_.canonicalize(prediction.scores, encoded_reply(k));
    // Argmax of the canonical scores, so predicted == argmax(scores) holds
    // for the reply and for every future memo hit alike.
    prediction.predicted = tensor::argmax(prediction.scores);
  }
  // 5. Memoize the misses, under one lock for the whole batch.
  const std::lock_guard<std::mutex> lock(memo_mutex_);
  const std::size_t bytes_before = memo_.bytes();
  for (std::size_t k = 0; k < misses.size(); ++k) {
    const Prediction& prediction = results[misses[k]];
    (void)memo_.store(records[misses[k]].uid, pinned->version,
                      prediction.predicted, prediction.consensus,
                      encoded_reply(k));
  }
  metrics_.memo_bytes.add(static_cast<std::int64_t>(memo_.bytes()) -
                          static_cast<std::int64_t>(bytes_before));
  return results;
}

std::size_t InferenceEngine::cache_entries() const {
  const std::lock_guard<std::mutex> lock(memo_mutex_);
  return memo_.size();
}

bool InferenceEngine::cache_contains(std::uint64_t uid) const {
  const std::lock_guard<std::mutex> lock(memo_mutex_);
  return memo_.contains(uid);
}

std::size_t InferenceEngine::memo_bytes() const {
  const std::lock_guard<std::mutex> lock(memo_mutex_);
  return memo_.bytes();
}

std::uint64_t reload_head_artifact(InferenceEngine& engine,
                                   const std::string& path) {
  const data::Artifact artifact = data::Artifact::map_file(path);
  const std::shared_ptr<const core::FusedModel> current = engine.model();
  // Same body, same fusing gate, new head: the artifact's keepalive
  // travels inside the mapped Mlp, so the mapping outlives this scope.
  auto next = std::make_shared<core::FusedModel>(
      current->name(), current->body(),
      nn::Mlp::map_artifact(artifact, "head"),
      current->head_only_on_disagreement());
  return engine.swap_model(std::move(next), artifact.model_version());
}

}  // namespace muffin::serve
