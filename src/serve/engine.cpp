#include "serve/engine.h"

#include <algorithm>
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
      memo_bytes(registry.gauge("serve.result_memo_bytes")) {}

InferenceEngine::InferenceEngine(std::shared_ptr<const core::FusedModel> model,
                                 EngineConfig config)
    : registry_(std::move(model), config.initial_model_version),
      config_(config),
      num_classes_(0),
      telemetry_(obs::registry()),
      metrics_(telemetry_),
      pool_(common::global_pool()),
      batcher_({config.max_batch, config.max_delay, config.max_queue,
                "engine.batcher"}),
      memo_mode_(tensor::active_quant_mode()) {
  const std::shared_ptr<const ModelSnapshot> snapshot = registry_.current();
  num_classes_ = snapshot->model->num_classes();
  LifecycleMetrics::get().model_version.set(
      static_cast<std::int64_t>(snapshot->version));
  dispatcher_ = std::thread([this]() { dispatch_loop(); });
}

InferenceEngine::~InferenceEngine() { shutdown(); }

std::future<Prediction> InferenceEngine::submit(const data::Record& record) {
  MUFFIN_REQUIRE(!stopped_.load(), "cannot submit to a stopped engine");
  // Before any accounting: an injected submit fault must look like the
  // submit never happened (the router's failover path depends on that).
  fail::maybe_fail("serve.engine.submit");
  Request request{record, Clock::now(), {},
                  obs::Tracer::instance().sample()};
  std::future<Prediction> future = request.promise.get_future();
  // Requests are counted when a batch picks them up (process_batch), so
  // a shed or a submit that loses the race with shutdown() is never
  // counted at all.
  try {
    batcher_.push(std::move(request));
  } catch (const Overloaded&) {
    // Admission bound reached: the request never entered the engine.
    metrics_.shed.inc();
    metrics_.shed_latency_us.observe(micros(Clock::now() - request.enqueued));
    throw;
  }
  return future;
}

Prediction InferenceEngine::predict(const data::Record& record) {
  return submit(record).get();
}

std::vector<std::future<Prediction>> InferenceEngine::submit_batch(
    std::span<const data::Record> records) {
  std::vector<data::Record> copies(records.begin(), records.end());
  return submit_batch(std::move(copies));
}

std::vector<std::future<Prediction>> InferenceEngine::submit_batch(
    std::vector<data::Record>&& records) {
  MUFFIN_REQUIRE(!stopped_.load(), "cannot submit to a stopped engine");
  fail::maybe_fail("serve.engine.submit");
  const std::size_t n = records.size();
  std::vector<Request> requests;
  requests.reserve(n);
  std::vector<std::future<Prediction>> futures;
  futures.reserve(n);
  const Clock::time_point now = Clock::now();
  obs::Tracer& tracer = obs::Tracer::instance();
  for (data::Record& record : records) {
    Request request{std::move(record), now, {}, tracer.sample()};
    futures.push_back(request.promise.get_future());
    requests.push_back(std::move(request));
  }
  try {
    batcher_.push_many(std::move(requests));
  } catch (const Overloaded&) {
    // Shed whole: push_many admits all records or none.
    metrics_.shed.inc(n);
    metrics_.shed_latency_us.observe(micros(Clock::now() - now));
    throw;
  }
  return futures;
}

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

std::vector<Prediction> InferenceEngine::predict_batch(
    std::span<const data::Record> records) {
  // submit_batch is atomic, so there is no partially-submitted prefix to
  // quiesce on a submit failure; the all-or-error rule (serve/router.h)
  // is enforced by collect_all_or_error, where per-record results fail.
  return collect_all_or_error(submit_batch(records));
}

void InferenceEngine::shutdown() {
  if (stopped_.exchange(true)) return;
  batcher_.close();
  if (dispatcher_.joinable()) dispatcher_.join();
  std::unique_lock<std::mutex> lock(inflight_mutex_);
  inflight_done_.wait(lock, [this]() { return inflight_batches_ == 0; });
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

void InferenceEngine::dispatch_loop() {
  for (;;) {
    std::vector<Request> batch = batcher_.next_batch();
    if (batch.empty()) return;  // closed and drained
    {
      const std::lock_guard<std::mutex> lock(inflight_mutex_);
      ++inflight_batches_;
    }
    // The future is intentionally dropped: results and failures reach the
    // caller through the per-request promises, not the job future.
    (void)pool_.submit([this, b = std::move(batch)]() mutable {
      process_batch(std::move(b));
    });
  }
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
            Error("request deadline exceeded before scoring")));
      } else {
        live.push_back(std::move(request));
      }
    }
    batch = std::move(live);
    if (batch.empty()) {
      const std::lock_guard<std::mutex> lock(inflight_mutex_);
      --inflight_batches_;
      inflight_done_.notify_all();
      return;
    }
  }
  const std::size_t n = batch.size();
  metrics_.batches.inc();
  metrics_.batch_size.observe(static_cast<double>(n));
  // Tracing: one serve.batch span if any request in the batch was picked
  // by the edge sampler; sampled requests additionally emit their queue
  // wait (enqueue -> batch formation) and end-to-end serve.request spans.
  obs::Tracer& tracer = obs::Tracer::instance();
  bool any_traced = false;
  for (const Request& request : batch) any_traced |= request.traced;
  const obs::TraceSpan batch_span(
      "serve.batch", any_traced,
      any_traced ? "\"batch_size\":" + std::to_string(n) : std::string());
  if (any_traced) {
    const double batch_start_us = tracer.now_us();
    for (const Request& request : batch) {
      if (!request.traced) continue;
      const double enqueued_us = tracer.to_us(request.enqueued);
      tracer.record("serve.queue", enqueued_us, batch_start_us - enqueued_us,
                    "\"uid\":" + std::to_string(request.record.uid));
    }
  }
  std::vector<Prediction> results(n);
  std::size_t delivered = 0;
  // Epoch pin: this batch scores — and is memoized — entirely on one
  // model snapshot, no matter how many swaps land while it runs. The
  // shared_ptr hold keeps the pinned version fully alive until the last
  // in-flight batch on it completes.
  const std::shared_ptr<const ModelSnapshot> pinned = registry_.current();
  try {
    // Chaos seam: an injected error here fails the whole batch through
    // the catch-all below (the all-or-error contract under test); an
    // injected delay models a slow scoring pass.
    fail::maybe_fail("serve.engine.score");

    // 1. Serve repeats from the result memo. Lookups are keyed by
    // (model version, uid): entries written by other versions miss.
    std::vector<std::size_t> misses;
    misses.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (!cache_lookup(batch[i].record.uid, pinned->version, results[i])) {
        misses.push_back(i);
      }
    }
    metrics_.cache_hits.inc(n - misses.size());
    metrics_.cache_misses.inc(misses.size());

    // 2. Body scores for the misses as one record span through the shared
    // gather (every body model's score_batch override over the whole
    // sub-batch, written in the ScoreCache gather layout). score_batch
    // takes a contiguous span, so the miss records are copied out of
    // their Request wrappers once per batch — amortized across all body
    // models and small next to the scoring itself.
    if (!misses.empty()) {
      std::vector<data::Record> miss_records;
      miss_records.reserve(misses.size());
      for (const std::size_t i : misses) {
        miss_records.push_back(batch[i].record);
      }
      const core::FusedModel& model = *pinned->model;
      const std::size_t body_size = model.body().size();
      const tensor::Matrix gathered = [&]() {
        const obs::TraceSpan span(
            "serve.score_batch", any_traced,
            any_traced ? "\"rows\":" + std::to_string(misses.size())
                       : std::string());
        return core::gather_body_scores(model.body(), num_classes_,
                                        miss_records);
      }();

      // 3. Row-wise consensus gate + one batched head forward over the
      // disagreement rows, on the pinned version's head. Bit-identical to
      // FusedModel::scores by construction: fuse_gathered_batch rows
      // match core::fuse_gathered.
      core::FusedBatch fused = [&]() {
        const obs::TraceSpan span("serve.fuse", any_traced);
        return core::fuse_gathered_batch(gathered, model.head(), body_size,
                                         num_classes_,
                                         model.head_only_on_disagreement());
      }();
      metrics_.consensus.inc(misses.size() - fused.head_rows);
      metrics_.head_evaluations.inc(fused.head_rows);
      for (std::size_t k = 0; k < misses.size(); ++k) {
        const std::size_t i = misses[k];
        Prediction& prediction = results[i];
        const auto row = fused.scores.row(k);
        prediction.scores.assign(row.begin(), row.end());
        prediction.consensus = fused.consensus[k];
        prediction.model_version = pinned->version;
        // Canonicalize-on-miss: the reply carries the dequantized form of
        // what the memo stores (a no-op when the memo mode is off), so a
        // later memo hit for this uid replies bit-identically.
        MemoEntry entry = canonicalize_and_pack(prediction);
        entry.version = pinned->version;
        cache_store(batch[i].record.uid, std::move(entry));
      }
    }

    // 4. Deliver results and account latency.
    const Clock::time_point now = Clock::now();
    const obs::TraceSpan reply_span("serve.reply", any_traced);
    const double now_us = any_traced ? tracer.to_us(now) : 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      metrics_.latency_us.observe(micros(now - batch[i].enqueued));
      if (batch[i].traced) {
        const double enqueued_us = tracer.to_us(batch[i].enqueued);
        tracer.record("serve.request", enqueued_us, now_us - enqueued_us,
                      "\"uid\":" + std::to_string(batch[i].record.uid) +
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
  {
    const std::lock_guard<std::mutex> lock(inflight_mutex_);
    --inflight_batches_;
    // Notify while holding the mutex: shutdown() destroys this engine as
    // soon as its wait observes zero in-flight batches, so an unlocked
    // notify here could land on an already-destroyed condition variable
    // (caught by TSan as pthread_cond_broadcast vs pthread_cond_destroy).
    inflight_done_.notify_all();
  }
}

std::size_t InferenceEngine::cache_entries() const {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_index_.size();
}

bool InferenceEngine::cache_contains(std::uint64_t uid) const {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_index_.find(uid) != cache_index_.end();
}

std::size_t InferenceEngine::MemoEntry::payload_bytes() const {
  return f64.size() * sizeof(double) + bf16.size() * sizeof(std::uint16_t) +
         i8.size() * sizeof(std::int8_t) +
         (i8.empty() ? 0 : sizeof(double));  // the per-vector int8 scale
}

InferenceEngine::MemoEntry InferenceEngine::canonicalize_and_pack(
    Prediction& prediction) const {
  MemoEntry entry;
  entry.consensus = prediction.consensus;
  tensor::Vector& scores = prediction.scores;
  switch (memo_mode_) {
    case tensor::QuantMode::Off: {
      entry.f64.assign(scores.begin(), scores.end());
      break;
    }
    case tensor::QuantMode::Bf16: {
      entry.bf16.resize(scores.size());
      for (std::size_t c = 0; c < scores.size(); ++c) {
        entry.bf16[c] = tensor::bf16_from_double(scores[c]);
        scores[c] = tensor::bf16_to_double(entry.bf16[c]);
      }
      break;
    }
    case tensor::QuantMode::Int8: {
      // Quantize exactly once from the float scores: the canonical reply
      // is q * scale, the same product a memo hit recomputes — nothing is
      // ever re-quantized, so no idempotence argument is needed.
      entry.scale = tensor::i8_scale(scores);
      entry.i8.resize(scores.size());
      for (std::size_t c = 0; c < scores.size(); ++c) {
        entry.i8[c] = tensor::i8_from_double(scores[c], entry.scale);
        scores[c] = tensor::i8_to_double(entry.i8[c], entry.scale);
      }
      break;
    }
  }
  // Argmax of the canonical scores, so predicted == argmax(scores) holds
  // for the reply and for every future memo hit alike.
  prediction.predicted = tensor::argmax(scores);
  entry.predicted = static_cast<std::uint32_t>(prediction.predicted);
  return entry;
}

bool InferenceEngine::cache_lookup(std::uint64_t uid, std::uint64_t version,
                                   Prediction& out) {
  if (config_.result_cache_capacity == 0) return false;
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto it = cache_index_.find(uid);
  if (it == cache_index_.end()) return false;
  const MemoEntry& entry = it->second->second;
  // Version key: an entry scored by a different model version is a miss
  // (no splice — a stale entry earns no recency), and the rescore that
  // follows replaces it. This is the stale-score-leak fix: no pre-swap
  // score can ever be served post-swap.
  if (entry.version != version) return false;
  cache_order_.splice(cache_order_.begin(), cache_order_, it->second);
  out.predicted = entry.predicted;
  out.consensus = entry.consensus;
  out.cached = true;
  out.model_version = entry.version;
  switch (memo_mode_) {
    case tensor::QuantMode::Off: {
      out.scores.assign(entry.f64.begin(), entry.f64.end());
      break;
    }
    case tensor::QuantMode::Bf16: {
      out.scores.resize(entry.bf16.size());
      for (std::size_t c = 0; c < entry.bf16.size(); ++c) {
        out.scores[c] = tensor::bf16_to_double(entry.bf16[c]);
      }
      break;
    }
    case tensor::QuantMode::Int8: {
      out.scores.resize(entry.i8.size());
      for (std::size_t c = 0; c < entry.i8.size(); ++c) {
        out.scores[c] = tensor::i8_to_double(entry.i8[c], entry.scale);
      }
      break;
    }
  }
  return true;
}

void InferenceEngine::cache_store(std::uint64_t uid, MemoEntry entry) {
  if (config_.result_cache_capacity == 0) return;
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto it = cache_index_.find(uid);
  if (it != cache_index_.end()) {
    MemoEntry& existing = it->second->second;
    if (existing.version >= entry.version) {
      // Another batch raced us to the same record on the same (or a
      // newer) version; keep the existing entry.
      cache_order_.splice(cache_order_.begin(), cache_order_, it->second);
      return;
    }
    // Stale entry from a pre-swap version: replace it in place.
    const std::size_t old_bytes = existing.payload_bytes();
    const std::size_t new_bytes = entry.payload_bytes();
    existing = std::move(entry);
    memo_bytes_ += new_bytes;
    memo_bytes_ -= old_bytes;
    metrics_.memo_bytes.add(static_cast<std::int64_t>(new_bytes) -
                            static_cast<std::int64_t>(old_bytes));
    cache_order_.splice(cache_order_.begin(), cache_order_, it->second);
    return;
  }
  const std::size_t added = entry.payload_bytes();
  cache_order_.emplace_front(uid, std::move(entry));
  cache_index_.emplace(uid, cache_order_.begin());
  memo_bytes_ += added;
  metrics_.memo_bytes.add(static_cast<std::int64_t>(added));
  while (cache_order_.size() > config_.result_cache_capacity) {
    const std::size_t evicted = cache_order_.back().second.payload_bytes();
    memo_bytes_ -= evicted;
    metrics_.memo_bytes.sub(static_cast<std::int64_t>(evicted));
    cache_index_.erase(cache_order_.back().first);
    cache_order_.pop_back();
  }
}

std::size_t InferenceEngine::memo_bytes() const {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  return memo_bytes_;
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
