// Metrics registry: the one telemetry path every serving layer reports
// through.
//
// Three metric kinds, all backed by relaxed atomics so the hot path is a
// single uncontended atomic add:
//
//  * Counter    named monotonic u64 (requests, frames, bytes, drains).
//  * Gauge      named signed level (queue depth, open connections).
//  * Histogram  fixed-bucket distribution (batch sizes, latencies).
//               Bucket bounds are chosen at registration and never
//               change, so observe() is a binary search over the bounds
//               plus one atomic add. latency_us_buckets() is log-linear
//               and fine enough that percentiles read back from the
//               buckets lie within 1% of the exact sample percentile.
//
// Registration happens once per call site; the intended idiom is a
// function-local static reference so steady-state cost is exactly the
// atomic operation:
//
//   static obs::Counter& frames =
//       obs::registry().counter("rpc.server.frames_received");
//   frames.inc();
//
// Registries form a tree rooted at the process registry (obs::registry(),
// never destroyed). A child registry gives one component — each
// InferenceEngine — its own numbers under the shared names: the child's
// snapshot() is that component's view, and the parent's snapshot() sums
// in every live child, so a host running four engines reports their total
// under one name. Every name a child registers is registered in its
// parent too, so kind and bucket conflicts throw at registration. When a
// child is destroyed its counters and histograms fold into the parent;
// gauges are levels and vanish with it. A child must be destroyed before
// its parent. A default-constructed registry is detached: nothing sums it.
//
// Snapshots are point-in-time copies that merge by name (counters and
// gauges add, histograms add bucket by bucket), which is how a router
// folds per-shard views — local or fetched over the Stats RPC — into one.
// Exposition is Prometheus text (to_prometheus) or JSON (to_json), both
// deterministic (name-sorted) so two snapshots of the same state render
// identically. reset() zeroes a registry and its children (bench/test
// isolation); metric references stay valid for the registry's lifetime.
//
// Compiled-out mode: building with -DMUFFIN_OBS_DISABLED turns every
// record operation (inc/set/add/observe) into an inline no-op while
// keeping the full API, so instrumented call sites compile unchanged and
// the overhead gate (bench/bench_obs_overhead.cpp, the CI
// metrics-overhead job) can compare enabled vs off builds. In that build
// every snapshot reads 0.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace muffin::obs {

/// True when metric recording is compiled in (the default build).
[[nodiscard]] constexpr bool compiled_in() {
#if defined(MUFFIN_OBS_DISABLED)
  return false;
#else
  return true;
#endif
}

// --- snapshots --------------------------------------------------------------

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  ///< per-bucket, last is +Inf
  std::uint64_t count = 0;            ///< sum of counts
  double sum = 0.0;

  /// Add `other` bucket by bucket; throws muffin::Error if bounds differ.
  void merge(const HistogramSnapshot& other);
  /// sum / count, 0 when empty.
  [[nodiscard]] double mean() const;
  /// Nearest-rank percentile (serve::percentile's rule), q in [0, 100],
  /// answered from the buckets: the bucket holding the rank-th smallest
  /// observation, reported at the point of least relative error inside
  /// it. On latency_us_buckets() that is within 1% of the exact answer
  /// for values from 1 us to the top bound; values below the first bound
  /// read as that bound, values above the last as the last. 0 when empty.
  [[nodiscard]] double percentile(double q) const;
};

/// Point-in-time copy of a registry, name-sorted per kind.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Fold `other` in by name: counters and gauges add, histograms add
  /// bucket by bucket (same-named histograms with different bounds throw
  /// muffin::Error); names only `other` has are added. Bucket counts
  /// merge commutatively and associatively.
  void merge(const MetricsSnapshot& other);

  [[nodiscard]] const CounterSnapshot* find_counter(
      std::string_view name) const;
  [[nodiscard]] const GaugeSnapshot* find_gauge(std::string_view name) const;
  [[nodiscard]] const HistogramSnapshot* find_histogram(
      std::string_view name) const;
  /// The named counter's / gauge's value, 0 when absent.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  [[nodiscard]] std::int64_t gauge_value(std::string_view name) const;

  /// Prometheus text exposition (names prefixed "muffin_", dots become
  /// underscores, histogram buckets cumulative with an +Inf bucket).
  [[nodiscard]] std::string to_prometheus() const;
  /// Compact JSON object {"counters":{...},"gauges":{...},
  /// "histograms":{...}}.
  [[nodiscard]] std::string to_json() const;
};

// --- metrics ----------------------------------------------------------------

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
#if defined(MUFFIN_OBS_DISABLED)
    (void)n;
#else
    value_.fetch_add(n, std::memory_order_relaxed);
#endif
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) noexcept {
#if defined(MUFFIN_OBS_DISABLED)
    (void)v;
#else
    value_.store(v, std::memory_order_relaxed);
#endif
  }
  void add(std::int64_t n) noexcept {
#if defined(MUFFIN_OBS_DISABLED)
    (void)n;
#else
    value_.fetch_add(n, std::memory_order_relaxed);
#endif
  }
  void sub(std::int64_t n) noexcept { add(-n); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

class Histogram {
 public:
  /// `bounds` are finite, strictly increasing, inclusive bucket upper
  /// bounds; values above the last bound land in the implicit +Inf
  /// bucket.
  explicit Histogram(std::vector<double> bounds);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double value) noexcept {
#if defined(MUFFIN_OBS_DISABLED)
    (void)value;
#else
    const auto bound = std::lower_bound(bounds_.begin(), bounds_.end(), value);
    counts_[static_cast<std::size_t>(bound - bounds_.begin())].fetch_add(
        1, std::memory_order_relaxed);
    // Relaxed CAS loop: atomic<double>::fetch_add is C++20 but the loop
    // keeps us off any libstdc++ version cliff, and sums are cold next
    // to the serving work they describe.
    double expected = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(expected, expected + value,
                                       std::memory_order_relaxed)) {
    }
#endif
  }

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Observations so far: the sum of the bucket counts.
  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Per-bucket (non-cumulative) counts; size bounds().size() + 1, the
  /// last entry being the +Inf bucket.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  /// Add a snapshot's bucket counts and sum (same bounds): how a
  /// destroyed child registry folds into its parent.
  void add(const HistogramSnapshot& other) noexcept;
  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  ///< bounds + Inf
  std::atomic<double> sum_{0.0};
};

class Registry {
 public:
  /// A detached registry: its snapshot is its own and nothing sums it.
  Registry();
  /// A child of `parent`, summed into the parent's snapshot while it
  /// lives and folded into the parent when destroyed.
  explicit Registry(Registry& parent);
  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Look up or create the named metric. References stay valid for the
  /// registry's lifetime. Registering the same name with a different kind
  /// (or a histogram with different bounds), here or in an ancestor,
  /// throws muffin::Error.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::vector<double> bounds);

  /// This registry's metrics plus those of every live child.
  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// Zero every metric here and in every live child (registration
  /// survives).
  void reset();

 private:
  enum class Kind { Counter, Gauge, Histogram };
  struct Entry;

  [[nodiscard]] Entry& find_or_create(std::string_view name, Kind kind,
                                      const std::vector<double>& bounds);
  /// Requires mutex_; nullptr when the name is not registered here.
  [[nodiscard]] Entry* find_locked(std::string_view name) const;

  Registry* const parent_ = nullptr;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;  ///< stable addresses
  std::vector<Registry*> children_;              ///< live children
};

/// The process-wide registry every layer reports through.
[[nodiscard]] Registry& registry();

/// Log-linear microsecond latency buckets shared by every timing
/// histogram, so operator dashboards line up across layers: from 1 us to
/// 2^24 us (~16.8 s), each power-of-two octave split into 64 equal
/// buckets. A bucket spans at most 1/64 of its lower edge, which is what
/// bounds HistogramSnapshot::percentile's error below 1%.
[[nodiscard]] const std::vector<double>& latency_us_buckets();

/// Batch-size buckets (1 .. 512) for the batching histograms.
[[nodiscard]] const std::vector<double>& batch_size_buckets();

}  // namespace muffin::obs
