// Batched multi-threaded inference engine for fused Muffin models.
//
// The per-record path (`models::Model::scores`) is fine for offline
// evaluation but wrong for serving: every request pays full body-model
// evaluation, a locked head forward, and per-call allocations. The engine
// turns the same FusedModel into a serving runtime:
//
//  * **Two entry points, one scoring core.** submit() queues one record
//    in the engine's own queue, and batches of it run on the process-wide
//    shared ThreadPool (common::global_pool(), sized by MUFFIN_THREADS or
//    the hardware). predict_batch() scores a span the caller already
//    holds at once, as one batch, on the calling thread — the shard
//    server's path for each decoded request frame. Both go through the
//    same memo -> gather -> fuse -> memo-store core. Every engine
//    replica, MuffinSearch and the calibrated score_batch row split draw
//    from the one pool, so components never compete through
//    oversubscribed per-component threads. A queued batch splits nothing
//    further: on a pool worker the row split runs serially, and GEMMs
//    never split.
//  * **Batching without a timer or a thread (Nagle's rule).** Up to
//    max_batch queued requests leave for the pool when none of this
//    engine's batches is running, or when max_batch are queued and fewer
//    than pool-width batches are running. The rule runs where the queue
//    changes: in the submit() that makes a hand-off due, and in the pool
//    job that finishes a batch, which hands the next one back through
//    the pool's queue rather than running it, so a saturated engine
//    leaves the pool to other jobs. A lone request on an idle engine
//    leaves at once; under load, requests queue while batches run and
//    leave in full batches. The engine never has more than pool-width
//    batches on the pool, so its backlog stays in its own queue, where
//    max_queue bounds it and deadline drops what overstays.
//  * **Matrix-in/Matrix-out batch scoring.** Each batch's memo misses are
//    scored as one record span: every body model scores the whole span via
//    its Model::score_batch override (batched GEMM for network-backed
//    models, scratch reuse for calibrated ones) into the row-major gather
//    matrix, and the fused result comes from one core::fuse_gathered_batch
//    call — no per-record loops anywhere on the hot path.
//  * **Consensus short-circuit, row-wise.** §3.2: rows whose body models
//    agree resolve to the consensus mean directly; the muffin head runs a
//    single batched forward over the disagreement sub-batch only — on
//    well-calibrated pools that removes the head from the majority of
//    requests and shrinks the one GEMM that remains.
//  * **Result memoization.** Model scores are deterministic per record
//    (the Model contract), so completed predictions are kept in a bounded
//    exact-LRU memo keyed by (model version, record uid); repeated
//    requests — the common case in steady-state serving traffic — are
//    answered from it without touching the body models. The memo
//    (serve/result_memo.h) is three flat arrays sized once from
//    result_cache_capacity: 32-byte slots with 32-bit LRU links, one slab
//    of encoded replies and an open-addressed uid index. A batch takes
//    its lock once for its lookups and once for its stores, and neither a
//    hit nor a store allocates. Exactness requires uids to uniquely
//    identify record content, which the data generators guarantee; the
//    version key guarantees a hot-swap can never serve a pre-swap score
//    post-swap.
//  * **Versioned hot-swap.** The engine owns its model through a
//    ModelRegistry (serve/model_registry.h): swap_model() publishes a
//    new version as an O(1) pointer swap that never pauses traffic.
//    Each batch pins one snapshot for its whole lifetime (epoch/RCU via
//    shared_ptr), so in-flight batches finish — bit-identically — on
//    the version they started with, while the next batch picks up the
//    new one. A batch scores on its pinned snapshot's own head (const
//    inference forwards are safe to share across workers).
//  * **Accounting.** Each engine records into its own child of the
//    process metrics registry (obs/metrics.h), under the process-wide
//    names: engine.requests counts requests admitted to a batch (sheds
//    are serve.shed), engine.latency_us times each one from submit (or
//    the predict_batch call) to reply. metrics() is this engine's view;
//    obs::registry() sums every engine in the process.
//
// Engine outputs are bit-identical to FusedModel::scores on every record
// within one model version: the batch path replicates its arithmetic
// (same gather order, same consensus mean, same head weights, same
// normalization).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/fused.h"
#include "obs/metrics.h"
#include "serve/model_registry.h"
#include "serve/result_memo.h"
#include "tensor/quant.h"

namespace muffin::serve {

/// Batches run on the shared process-wide pool (common::global_pool());
/// size that pool with the MUFFIN_THREADS environment variable.
struct EngineConfig {
  /// Most requests in one queued batch (>= 1).
  std::size_t max_batch = 32;
  /// Max memoized predictions; 0 disables the result cache. Each entry
  /// costs a 32-byte slot, its reply payload (C scores at the memo quant
  /// mode's width, plus an 8-byte int8 scale, rounded up to 8) and 8 to
  /// 16 bytes of index (8 at a power-of-two capacity like the default):
  /// 104 bytes at C = 8 in f64, 56 in bf16 or int8. All of it is reserved
  /// at construction; the slots and the reply slab are touched lazily, as
  /// entries are written. At most ResultMemo::kMaxCapacity.
  std::size_t result_cache_capacity = 1 << 16;
  /// Admission bound: submits throw muffin::Overloaded once this many
  /// requests wait in the engine's queue (0 = unbounded). Batches leave
  /// the queue only while fewer than pool-width of them run, so this
  /// bounds the whole backlog: at most max_queue waiting plus pool-width
  /// batches of max_batch. The rejection happens at enqueue — overload is
  /// reported in microseconds instead of the request timing out under a
  /// backlog. Queued submits only: predict_batch queues nothing.
  std::size_t max_queue = 0;
  /// Per-request serving deadline (0 = none): a submitted request that
  /// has already waited this long when its batch is picked up is failed
  /// with muffin::DeadlineExceeded before any scoring work is spent on
  /// it. Queued submits only: predict_batch scores before it could wait.
  std::chrono::milliseconds deadline{0};
  /// Version the construction-time model is registered under (>= 1).
  /// Servers loading a stamped artifact pass its model_version through.
  std::uint64_t initial_model_version = 1;
};

/// One served prediction.
struct Prediction {
  std::size_t predicted = 0;   ///< argmax class
  tensor::Vector scores;       ///< full score vector (sums to 1)
  bool consensus = false;      ///< body agreed; head was skipped
  bool cached = false;         ///< answered from the result memo
  std::uint64_t model_version = 0;  ///< version that scored this reply
};

class InferenceEngine {
 public:
  explicit InferenceEngine(std::shared_ptr<const core::FusedModel> model,
                           EngineConfig config = {});
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Enqueue one record; the future completes when its batch is scored.
  /// Throws muffin::Overloaded when config().max_queue requests already
  /// wait in the queue.
  [[nodiscard]] std::future<Prediction> submit(const data::Record& record);

  /// Synchronous single-record convenience: submit + wait.
  [[nodiscard]] Prediction predict(const data::Record& record);

  /// Score `records` now, as one batch, on the calling thread, and return
  /// the predictions in input order — for callers that already hold a
  /// batch (the shard server scores each decoded request frame here).
  /// All-or-error: if scoring throws, the whole call throws. Nothing
  /// queues on this path, so config().max_queue and config().deadline do
  /// not apply; the batch counts in the engine.* metrics exactly as a
  /// queued batch does. Throws muffin::Error on a stopped engine, even
  /// for an empty span (the RPC health probe relies on that).
  [[nodiscard]] std::vector<Prediction> predict_batch(
      std::span<const data::Record> records);

  /// Drain in-flight requests and stop the runtime (idempotent). New
  /// submissions are rejected afterwards.
  void shutdown();

  /// Atomically publish a new model under live load and return the
  /// installed version. `version == 0` auto-assigns current + 1; an
  /// explicit version must advance monotonically (rollback guard). The
  /// swap is an O(1) registry publish — no pause, no flush: in-flight
  /// batches finish on the version they pinned, later batches score on
  /// the new one, and the version-keyed memo makes stale replies
  /// impossible. The new model must match the serving shape (class
  /// count) of the current one; the body pool may change freely.
  std::uint64_t swap_model(std::shared_ptr<const core::FusedModel> model,
                           std::uint64_t version = 0);

  /// Pin the live model (epoch semantics — the returned pointer keeps
  /// that version alive regardless of later swaps).
  [[nodiscard]] std::shared_ptr<const core::FusedModel> model() const {
    return registry_.current()->model;
  }
  /// The live model version.
  [[nodiscard]] std::uint64_t model_version() const {
    return registry_.version();
  }
  /// Swaps performed on this engine since construction.
  [[nodiscard]] std::size_t swaps() const {
    return swaps_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const EngineConfig& config() const { return config_; }
  /// This engine's accounting: engine.requests / .batches / .cache_hits /
  /// .consensus_short_circuits / .head_evaluations, the engine.latency_us
  /// histogram and the serve.* shed, deadline and memo metrics. All read
  /// 0 in a -DMUFFIN_OBS=OFF build. (The engine.batcher.depth gauge of
  /// queued requests is process-wide.)
  [[nodiscard]] obs::MetricsSnapshot metrics() const {
    return telemetry_.snapshot();
  }

  // Shard-local memo introspection (used by ShardRouter and the sharding
  // tests to verify uid affinity without perturbing the LRU order).
  /// Number of uids currently memoized. 0 whenever the cache is disabled.
  [[nodiscard]] std::size_t cache_entries() const;
  /// Whether `uid` is currently memoized; does not touch recency order.
  [[nodiscard]] bool cache_contains(std::uint64_t uid) const;
  /// Score-payload bytes currently held by the memo (also reported on the
  /// "serve.result_memo_bytes" gauge).
  [[nodiscard]] std::size_t memo_bytes() const;
  /// The quant mode memoized replies are stored (and replied) in — fixed
  /// at construction from tensor::active_quant_mode().
  [[nodiscard]] tensor::QuantMode memo_quant_mode() const {
    return memo_.mode();
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    data::Record record;
    Clock::time_point enqueued;
    std::promise<Prediction> promise;
    /// Picked by the edge sampler (obs::Tracer::sample) at submit time;
    /// traced requests emit serve.queue / serve.request span events.
    bool traced = false;
  };

  /// This engine's metrics, resolved once against its child registry.
  struct Metrics {
    explicit Metrics(obs::Registry& registry);
    obs::Counter& requests;
    obs::Counter& batches;
    obs::Counter& cache_hits;
    obs::Counter& cache_misses;
    obs::Counter& consensus;
    obs::Counter& head_evaluations;
    obs::Histogram& batch_size;
    obs::Histogram& latency_us;
    /// Requests rejected at admission (Overloaded), and how long the
    /// rejection itself took — the shed path's whole point is that this
    /// histogram sits far below engine.latency_us.
    obs::Counter& shed;
    obs::Histogram& shed_latency_us;
    /// Requests dropped unscored because they overstayed config.deadline.
    obs::Counter& deadline_drops;
    /// Score-payload bytes held by the memo.
    obs::Gauge& memo_bytes;
    /// Requests waiting in every engine's queue: process-wide, moved by
    /// deltas, so engines sum.
    obs::Gauge& queue_depth;
  };

  /// Whether Nagle's rule (file comment) lets a batch leave the queue
  /// now. Requires mutex_.
  [[nodiscard]] bool may_dispatch_locked() const;
  /// The batch that may leave now (empty if none), taken off the queue
  /// and counted in running_. Requires mutex_.
  [[nodiscard]] std::vector<Request> take_batch_locked();
  /// Submit a taken batch to the pool as one job, which scores it, then
  /// hands off the next due batch as a new job.
  void hand_off(std::vector<Request> batch);
  /// The queued path: deadline filter, the scoring core, promise delivery.
  void process_batch(std::vector<Request> batch);
  /// The one scoring core both entry points share: counts the batch, pins
  /// one model snapshot, answers memo hits, gathers and fuses the misses
  /// as one span, and memoizes them. Throws if scoring fails.
  [[nodiscard]] std::vector<Prediction> score(
      std::span<const data::Record> records, bool traced);

  ModelRegistry registry_;
  EngineConfig config_;
  std::size_t num_classes_;

  /// Child of the process registry; declared before everything that
  /// records into it, so it is destroyed (and folds into the process
  /// totals) after them.
  obs::Registry telemetry_;
  Metrics metrics_;
  common::ThreadPool& pool_;  ///< the shared process-wide pool (never owned)

  // The result memo, in the quant mode active at construction; its
  // payload bytes are mirrored on the serve.result_memo_bytes gauge.
  mutable std::mutex memo_mutex_;
  ResultMemo memo_;  ///< guarded by memo_mutex_

  std::atomic<std::size_t> swaps_{0};

  // The queued path, under mutex_: submitted requests wait in queue_ until
  // a submit or a finishing batch hands them to the pool. The same lock
  // guards the stop flag and the in-flight counts, so shutdown() can wait
  // for batches on the pool and predict_batch callers to finish without
  // relying on pool destruction order. wake_'s only waiters are
  // shutdown() calls.
  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<Request> queue_;
  std::size_t running_ = 0;  ///< batches handed to the pool, not finished
  std::size_t calls_ = 0;    ///< predict_batch calls in progress
  bool stopped_ = false;
};

/// Hot-swap from a MUFA artifact: map the head artifact at `path`
/// (tensor prefix "head" — the layout `muffin_cli serve --artifact`
/// writes), rebuild the fused model around the engine's current body
/// and fusing mode, and publish it through swap_model. A stamped
/// artifact installs under its model_version (which must advance the
/// registry); an unstamped one (a v1 container, or version 0) auto-
/// assigns the next version. Returns the installed version. This is the
/// one reload path shared by the Reload RPC, LocalReplica::reload and
/// the CLI's SIGHUP handler.
[[nodiscard]] std::uint64_t reload_head_artifact(InferenceEngine& engine,
                                                 const std::string& path);

}  // namespace muffin::serve
