// Batched multi-threaded inference engine for fused Muffin models.
//
// The per-record path (`models::Model::scores`) is fine for offline
// evaluation but wrong for serving: every request pays full body-model
// evaluation, a locked head forward, and per-call allocations. The engine
// turns the same FusedModel into a serving runtime:
//
//  * **Micro-batching.** Requests accumulate in a Batcher and flush on
//    batch-size or deadline; each batch is scored as a unit.
//  * **Worker pool.** Batches execute on the process-wide shared
//    ThreadPool (common::global_pool(), sized by MUFFIN_THREADS or the
//    hardware); on multi-core hosts independent batches score in
//    parallel. Every engine replica, MuffinSearch and the kernel-level
//    parallel_for draw from this one pool, so components never compete
//    through oversubscribed per-component threads.
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
//    LRU keyed by (model version, record uid); repeated requests — the
//    common case in steady-state serving traffic — are answered from the
//    cache without touching the body models. Exactness requires uids to
//    uniquely identify record content, which the data generators
//    guarantee; the version key guarantees a hot-swap can never serve a
//    pre-swap score post-swap.
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
//    are serve.shed), engine.latency_us times each one from enqueue to
//    reply. metrics() is this engine's view; obs::registry() sums every
//    engine in the process.
//
// Engine outputs are bit-identical to FusedModel::scores on every record
// within one model version: the batch path replicates its arithmetic
// (same gather order, same consensus mean, same head weights, same
// normalization).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <list>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "core/fused.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/model_registry.h"
#include "tensor/quant.h"

namespace muffin::serve {

/// Batches run on the shared process-wide pool (common::global_pool());
/// size that pool with the MUFFIN_THREADS environment variable.
struct EngineConfig {
  std::size_t max_batch = 32;                 ///< size-flush threshold
  std::chrono::microseconds max_delay{1000};  ///< deadline-flush threshold
  /// Max memoized predictions; 0 disables the result cache.
  std::size_t result_cache_capacity = 1 << 16;
  /// Admission bound, forwarded to the batcher: submits throw
  /// muffin::Overloaded once this many requests are queued (0 =
  /// unbounded). The rejection happens at enqueue — overload is reported
  /// in microseconds instead of the request timing out under a backlog.
  std::size_t max_queue = 0;
  /// Per-request serving deadline (0 = none): a request that has already
  /// waited this long when its batch is picked up is failed with
  /// muffin::Error before any scoring work is spent on it.
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

/// The serving tier's all-or-error rule, in one place: wait for every
/// future and return all predictions; if any failed, still await the
/// rest (so nothing is left in flight) and rethrow the first error.
/// Shared by engine/router predict_batch and the RPC server's writer.
[[nodiscard]] std::vector<Prediction> collect_all_or_error(
    std::vector<std::future<Prediction>> futures);

class InferenceEngine {
 public:
  explicit InferenceEngine(std::shared_ptr<const core::FusedModel> model,
                           EngineConfig config = {});
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Enqueue one record; the future completes when its batch is scored.
  [[nodiscard]] std::future<Prediction> submit(const data::Record& record);

  /// Enqueue a record span atomically (one lock, one wakeup — either
  /// every record enters the engine or, if it is stopped, none do) and
  /// return one future per record, in input order. This is the hot path
  /// for callers that already hold a batch: the RPC server feeds each
  /// decoded request frame through it, and predict_batch builds on it.
  [[nodiscard]] std::vector<std::future<Prediction>> submit_batch(
      std::span<const data::Record> records);
  /// Move overload for callers whose records are already materialized
  /// and disposable (the RPC server's decoded frames): records move into
  /// the engine instead of being copied.
  [[nodiscard]] std::vector<std::future<Prediction>> submit_batch(
      std::vector<data::Record>&& records);

  /// Synchronous single-record convenience: submit + wait.
  [[nodiscard]] Prediction predict(const data::Record& record);

  /// Submit every record, wait for all, return predictions in input order.
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
  /// 0 in a -DMUFFIN_OBS=OFF build. (engine.batcher.* flush counters and
  /// depth are process-wide.)
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
    return memo_mode_;
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

  /// One memoized reply, stored in the engine's memo quant mode: exactly
  /// one score representation is populated. A reply served from the memo
  /// dequantizes with the stored scale, and the miss that created the
  /// entry replied with the same dequantized values (canonicalize-on-miss
  /// in process_batch) — so hit and miss replies for one uid are
  /// bit-identical, with nothing ever re-quantized. Entries carry the
  /// model version that produced them: a lookup under a different
  /// version misses (and the rescore replaces the stale entry), so a
  /// hot-swap can never leak a pre-swap score.
  struct MemoEntry {
    std::uint64_t version = 0;        ///< model version that scored this
    std::uint32_t predicted = 0;
    bool consensus = false;
    std::vector<double> f64;          ///< QuantMode::Off
    std::vector<std::uint16_t> bf16;  ///< QuantMode::Bf16
    std::vector<std::int8_t> i8;      ///< QuantMode::Int8 ...
    double scale = 1.0;               ///< ... with one per-vector scale
    [[nodiscard]] std::size_t payload_bytes() const;
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
  };

  void dispatch_loop();
  void process_batch(std::vector<Request> batch);

  /// Quantize `prediction.scores` into a MemoEntry and replace them with
  /// the dequantized (canonical) values; sets prediction.predicted from
  /// the canonical scores and copies it into the entry.
  [[nodiscard]] MemoEntry canonicalize_and_pack(Prediction& prediction) const;

  [[nodiscard]] bool cache_lookup(std::uint64_t uid, std::uint64_t version,
                                  Prediction& out);
  void cache_store(std::uint64_t uid, MemoEntry entry);

  ModelRegistry registry_;
  EngineConfig config_;
  std::size_t num_classes_;

  /// Child of the process registry; declared before everything that
  /// records into it, so it is destroyed (and folds into the process
  /// totals) after them.
  obs::Registry telemetry_;
  Metrics metrics_;
  common::ThreadPool& pool_;  ///< the shared process-wide pool (never owned)
  Batcher<Request> batcher_;

  // Bounded LRU result memo: uid -> (version, quantized reply), most
  // recent at the front. memo_bytes_ tracks the score-payload footprint
  // (mirrored on the serve.result_memo_bytes gauge).
  tensor::QuantMode memo_mode_ = tensor::QuantMode::Off;
  mutable std::mutex cache_mutex_;
  std::list<std::pair<std::uint64_t, MemoEntry>> cache_order_;
  std::unordered_map<std::uint64_t, decltype(cache_order_)::iterator>
      cache_index_;
  std::size_t memo_bytes_ = 0;  ///< guarded by cache_mutex_

  // In-flight batch accounting so shutdown can wait for the pool to finish
  // without relying on pool destruction order.
  std::mutex inflight_mutex_;
  std::condition_variable inflight_done_;
  std::size_t inflight_batches_ = 0;

  std::atomic<std::size_t> swaps_{0};

  std::atomic<bool> stopped_{false};
  std::thread dispatcher_;
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
