// Benchmark statistics and seeded input generators.
//
// Everything a run reports is computed here: percentiles with the sample
// counts behind them, medians and quartiles of repeated measurements, and
// the fixed-seed generators that turn `--seed` into a request stream
// (Zipf or never-repeating record order) and an open-loop arrival
// schedule (Poisson). The generators draw from the library's
// common::CounterRng (splitmix64), which is fully specified, so one seed
// names the same inputs on every platform.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "serve/stats.h"

namespace perfbench {

/// A seeded permutation of 0..n-1 (Fisher-Yates).
inline std::vector<std::uint32_t> permutation(std::size_t n,
                                              muffin::CounterRng& rng) {
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.index(i)]);
  }
  return order;
}

/// Zipf(s) over ranks 0..n-1: P(rank k) is proportional to 1/(k+1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    if (n == 0) throw std::invalid_argument("Zipf needs n > 0");
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  /// The rank a uniform draw `u` in (0, 1) selects.
  [[nodiscard]] std::size_t rank(double u) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Which record each request asks for. Zipf draws hot records over and
/// over; Unique walks a seeded permutation, so a record repeats only after
/// the whole universe has been requested.
class RecordStream {
 public:
  enum class Kind { Zipf, Unique };

  RecordStream(Kind kind, std::size_t universe, double zipf_s,
               std::uint64_t seed)
      : kind_(kind), rng_(seed), order_(permutation(universe, rng_)) {
    if (kind_ == Kind::Zipf) zipf_.emplace_back(universe, zipf_s);
  }

  [[nodiscard]] std::uint32_t next() {
    if (kind_ == Kind::Zipf) return order_[zipf_[0].rank(rng_.uniform())];
    const std::uint32_t record = order_[cursor_];
    cursor_ = (cursor_ + 1) % order_.size();
    return record;
  }

 private:
  Kind kind_;
  muffin::CounterRng rng_;
  std::vector<std::uint32_t> order_;
  std::vector<Zipf> zipf_;  ///< empty for Unique
  std::size_t cursor_ = 0;
};

/// Open-loop Poisson arrivals at `rate` per second over `seconds`: the
/// intended send time of every request, in nanoseconds from the start.
inline std::vector<std::int64_t> poisson_schedule_ns(double rate,
                                                     double seconds,
                                                     muffin::CounterRng& rng) {
  std::vector<std::int64_t> schedule;
  schedule.reserve(static_cast<std::size_t>(rate * seconds * 1.05) + 16);
  const double horizon_ns = seconds * 1e9;
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) / rate * 1e9;
    if (t >= horizon_ns) break;
    schedule.push_back(static_cast<std::int64_t>(t));
  }
  return schedule;
}

/// A percentile together with the evidence behind it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< samples the percentile was taken over
  std::size_t beyond = 0;   ///< samples strictly above the value
};

/// Nearest-rank percentile (serve::percentile) of ascending `sorted`
/// samples, q in [0, 1], with the count of samples beyond it.
inline Percentile percentile_sorted(std::span<const double> sorted, double q) {
  Percentile p;
  p.samples = sorted.size();
  if (sorted.empty()) return p;
  p.value = muffin::serve::percentile({sorted.begin(), sorted.end()}, 100 * q);
  p.beyond = static_cast<std::size_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), p.value));
  return p;
}

/// Latency-style summary of one sample set.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double max = 0.0;
  Percentile p50, p95, p99, p999;
};

inline Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
  s.max = samples.back();
  s.p50 = percentile_sorted(samples, 0.50);
  s.p95 = percentile_sorted(samples, 0.95);
  s.p99 = percentile_sorted(samples, 0.99);
  s.p999 = percentile_sorted(samples, 0.999);
  return s;
}

inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// One measurement window of a run: when it ran (now_ns() times, or
/// offsets from a phase's start), what it measured, and the share of the
/// machine's CPU that went to something other than the benchmark meanwhile.
struct Window {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double value = 0.0;
  double interference = 0.0;
};

/// Split time-ordered samples into consecutive windows of `window_ns`
/// (by `at_ns`, counted from 0) and take percentile q in each non-empty
/// window. A stall then moves one window, not the result.
inline std::vector<Window> window_percentiles(
    std::span<const std::int64_t> at_ns, std::span<const double> values,
    std::int64_t window_ns, double q) {
  std::vector<Window> per_window;
  std::vector<double> window;
  std::int64_t window_end = window_ns;
  const auto close_window = [&]() {
    if (window.empty()) return;
    std::sort(window.begin(), window.end());
    per_window.push_back({window_end - window_ns, window_end,
                          percentile_sorted(window, q).value, 0.0});
    window.clear();
  };
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (at_ns[i] >= window_end) {
      close_window();
      window_end = (at_ns[i] / window_ns + 1) * window_ns;
    }
    window.push_back(values[i]);
  }
  close_window();
  return per_window;
}

/// Interference up to which a window counts as undisturbed: 5% of the
/// machine. An undisturbed 4-vCPU VM showed 2-4% while serving (kernel
/// work for the process and a little steal), read to about 1%.
constexpr double kQuietInterference = 0.05;

/// The values of the windows the host disturbed least: every window at
/// or below kQuietInterference, or, when fewer than half are, the half
/// with the least interference (ties kept). The choice looks only at the
/// host's state, never at the value measured, so it cannot favour a
/// result; it drops the stretches in which another process or guest held
/// the CPUs the program needed.
inline std::vector<double> least_disturbed(std::span<const Window> windows) {
  std::vector<double> interference;
  for (const Window& w : windows) interference.push_back(w.interference);
  std::sort(interference.begin(), interference.end());
  double cut = kQuietInterference;
  if (!interference.empty()) {
    cut = std::max(cut, interference[(interference.size() - 1) / 2]);
  }
  std::vector<double> values;
  for (const Window& w : windows) {
    if (w.interference <= cut) values.push_back(w.value);
  }
  return values;
}

/// First quartile, median and third quartile of repeated measurements,
/// computed exactly as Python's statistics.quantiles(values, n=4) (the
/// default "exclusive" method) and statistics.median do.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  /// Interquartile distance as a share of the median.
  [[nodiscard]] double spread() const {
    return median == 0.0 ? 0.0 : (q3 - q1) / std::abs(median);
  }
};

inline Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  q.median = median(values);
  const std::size_t n = values.size();
  if (n < 2) {
    q.q1 = q.q3 = q.median;
    return q;
  }
  std::sort(values.begin(), values.end());
  const auto cut = [&](std::size_t i) {
    // statistics.quantiles, method="exclusive", n=4: m = len + 1.
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  q.q1 = cut(1);
  q.q3 = cut(3);
  return q;
}

}  // namespace perfbench
