// Aggregation suite (obs/metrics.h): bucketed percentiles track the exact
// nearest-rank answer within 1%, snapshot merges are exact for bucket
// counts in any order or grouping, and a child registry is summed into
// its parent while it lives and folded in (gauges excepted) when it dies —
// also while snapshots race the churn (the TSan lane runs this suite).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "serve/stats.h"

namespace muffin::obs {
namespace {

/// Record `samples` into a fresh histogram on latency_us_buckets().
HistogramSnapshot record_all(const std::vector<double>& samples) {
  Registry registry;
  Histogram& histogram = registry.histogram("lat", latency_us_buckets());
  for (const double sample : samples) histogram.observe(sample);
  return *registry.snapshot().find_histogram("lat");
}

TEST(HistogramPercentile, WithinOnePercentOfExactOnUniformSkewedBimodal) {
  // Each shape spans more than four decades of microseconds.
  const std::vector<std::function<double(CounterRng&)>> shapes = {
      [](CounterRng& rng) { return 1.0 + rng.uniform() * 2e5; },
      [](CounterRng& rng) {  // serving shape: fast bulk, long tail
        const double u = rng.uniform();
        const double decade = u < 0.9 ? 0.0 : (u < 0.99 ? 2.0 : 4.0);
        return std::pow(10.0, decade + 2.0 * rng.uniform());
      },
      [](CounterRng& rng) {  // memo hits near 3 us, scoring near 40 ms
        return rng.bernoulli(0.7) ? 2.0 + 2.0 * rng.uniform()
                                  : 30000.0 + 20000.0 * rng.uniform();
      }};
  CounterRng rng(11);
  for (std::size_t shape = 0; shape < shapes.size(); ++shape) {
    std::vector<double> samples(20000);
    for (double& sample : samples) sample = shapes[shape](rng);
    const HistogramSnapshot histogram = record_all(samples);
    ASSERT_EQ(histogram.count, samples.size());
    for (const double q : {50.0, 95.0, 99.0, 99.9}) {
      const double exact = serve::percentile(samples, q);
      EXPECT_NEAR(histogram.percentile(q), exact, 0.01 * exact)
          << "shape " << shape << " p" << q;
    }
  }
}

TEST(HistogramPercentile, EdgeCases) {
  EXPECT_DOUBLE_EQ(record_all({}).percentile(50), 0.0);
  // Below the first bound reads as it; above the last reads as the last.
  EXPECT_DOUBLE_EQ(record_all({0.25}).percentile(50),
                   latency_us_buckets().front());
  EXPECT_DOUBLE_EQ(record_all({1e12}).percentile(50),
                   latency_us_buckets().back());
  const HistogramSnapshot one = record_all({1234.5});
  EXPECT_NEAR(one.percentile(0), 1234.5, 12.345);
  EXPECT_NEAR(one.percentile(100), 1234.5, 12.345);
  EXPECT_DOUBLE_EQ(one.mean(), 1234.5);
  EXPECT_THROW((void)one.percentile(101), Error);
}

/// Three shards' snapshots of disjoint samples, and one histogram that
/// recorded every sample.
std::pair<std::vector<MetricsSnapshot>, HistogramSnapshot> make_shards() {
  CounterRng rng(21);
  std::vector<MetricsSnapshot> parts;
  std::vector<double> all;
  for (int part = 1; part <= 3; ++part) {
    Registry registry;
    Histogram& histogram = registry.histogram("lat", latency_us_buckets());
    for (int i = 0; i < 1000 * part; ++i) {
      all.push_back(std::pow(10.0, 5.0 * rng.uniform()));
      histogram.observe(all.back());
    }
    registry.counter("requests").inc(1000 * part);
    registry.gauge("depth").set(part);
    parts.push_back(registry.snapshot());
  }
  return {parts, record_all(all)};
}

TEST(SnapshotMerge, BucketCountsMatchOneHistogramOverEverySample) {
  const auto [parts, whole] = make_shards();
  MetricsSnapshot merged;
  for (const MetricsSnapshot& part : parts) merged.merge(part);
  const HistogramSnapshot* histogram = merged.find_histogram("lat");
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->counts, whole.counts);
  EXPECT_EQ(histogram->count, 6000u);
  EXPECT_NEAR(histogram->sum, whole.sum, 1e-9 * whole.sum);
  EXPECT_EQ(merged.counter_value("requests"), 6000u);
  EXPECT_EQ(merged.gauge_value("depth"), 6);
}

TEST(SnapshotMerge, IsCommutativeAndAssociative) {
  const std::vector<MetricsSnapshot> parts = make_shards().first;
  const auto merge = [](MetricsSnapshot left, const MetricsSnapshot& right) {
    left.merge(right);
    return left;
  };
  const MetricsSnapshot ab = merge(parts[0], parts[1]);
  const MetricsSnapshot ba = merge(parts[1], parts[0]);
  EXPECT_EQ(ab.find_histogram("lat")->counts,
            ba.find_histogram("lat")->counts);
  EXPECT_EQ(ab.counter_value("requests"), ba.counter_value("requests"));
  const MetricsSnapshot left = merge(ab, parts[2]);
  const MetricsSnapshot right = merge(parts[0], merge(parts[1], parts[2]));
  EXPECT_EQ(left.find_histogram("lat")->counts,
            right.find_histogram("lat")->counts);
  EXPECT_EQ(left.counter_value("requests"), right.counter_value("requests"));
  EXPECT_EQ(left.gauge_value("depth"), right.gauge_value("depth"));
}

TEST(SnapshotMerge, KeepsNamesOnlyOneSideHasAndStaysSorted) {
  MetricsSnapshot left;
  left.counters = {{"b", 1}};
  MetricsSnapshot right;
  right.counters = {{"a", 2}, {"b", 3}};
  right.gauges = {{"g", -4}};
  left.merge(right);
  ASSERT_EQ(left.counters.size(), 2u);
  EXPECT_EQ(left.counters[0].name, "a");
  EXPECT_EQ(left.counter_value("b"), 4u);
  EXPECT_EQ(left.gauge_value("g"), -4);
}

TEST(RegistryTree, ParentSnapshotSumsLiveChildren) {
  Registry parent;
  Registry first(parent);
  Registry second(parent);
  parent.counter("requests").inc(1);
  first.counter("requests").inc(3);
  second.counter("requests").inc(4);
  first.gauge("depth").add(2);
  second.gauge("depth").add(5);
  first.histogram("lat", {1.0, 10.0}).observe(5.0);
  second.histogram("lat", {1.0, 10.0}).observe(50.0);
  const MetricsSnapshot total = parent.snapshot();
  EXPECT_EQ(total.counter_value("requests"), 8u);
  EXPECT_EQ(total.gauge_value("depth"), 7);
  EXPECT_EQ(total.find_histogram("lat")->counts,
            (std::vector<std::uint64_t>{0, 1, 1}));
  // A child's snapshot is its own view only.
  EXPECT_EQ(first.snapshot().counter_value("requests"), 3u);
}

TEST(RegistryTree, DestroyedChildStaysInParentTotalsExceptGauges) {
  Registry parent;
  {
    Registry child(parent);
    child.counter("requests").inc(9);
    child.gauge("depth").set(4);
    child.histogram("lat", {1.0, 10.0}).observe(3.0);
    EXPECT_EQ(parent.snapshot().gauge_value("depth"), 4);
  }
  const MetricsSnapshot total = parent.snapshot();
  EXPECT_EQ(total.counter_value("requests"), 9u);
  EXPECT_EQ(total.find_histogram("lat")->count, 1u);
  EXPECT_DOUBLE_EQ(total.find_histogram("lat")->sum, 3.0);
  EXPECT_EQ(total.gauge_value("depth"), 0);  // levels leave with the child
}

TEST(RegistryTree, ChildNamesConflictWithTheParentLikeLocalOnes) {
  Registry parent;
  (void)parent.gauge("shared");
  (void)parent.histogram("lat", {1.0, 2.0});
  Registry child(parent);
  EXPECT_THROW((void)child.counter("shared"), Error);
  EXPECT_THROW((void)child.histogram("lat", {1.0, 4.0}), Error);
  // A child's registration also claims the name in the parent.
  (void)child.counter("child.only");
  EXPECT_THROW((void)parent.gauge("child.only"), Error);
  child.counter("child.only").inc(5);
  parent.reset();  // reaches the child too
  EXPECT_EQ(child.snapshot().counter_value("child.only"), 0u);
}

TEST(RegistryTree, SnapshotsUnderChildChurnAreCleanAndMonotonic) {
  // Two threads create, record into and destroy children while a third
  // snapshots the parent: totals never run backwards, every timed
  // request is counted, and no destroyed child's traffic is lost.
  Registry parent;
  constexpr int kThreads = 2;
  constexpr int kChildren = 200;
  std::atomic<bool> churning{true};
  std::thread observer([&]() {
    std::uint64_t last = 0;
    while (churning.load()) {
      const MetricsSnapshot snap = parent.snapshot();
      const std::uint64_t requests = snap.counter_value("requests");
      EXPECT_GE(requests, last);
      if (const HistogramSnapshot* latency = snap.find_histogram("lat")) {
        EXPECT_LE(latency->count, requests);
      }
      last = requests;
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> churners;
  for (int t = 0; t < kThreads; ++t) {
    churners.emplace_back([&parent]() {
      for (int i = 0; i < kChildren; ++i) {
        Registry child(parent);
        Counter& requests = child.counter("requests");
        Histogram& latency = child.histogram("lat", {10.0, 100.0});
        for (int r = 0; r < 3; ++r) {
          requests.inc();
          latency.observe(1.0 + i);
        }
      }
    });
  }
  for (std::thread& churner : churners) churner.join();
  churning.store(false);
  observer.join();
  const MetricsSnapshot total = parent.snapshot();
  EXPECT_EQ(total.counter_value("requests"), 3u * kThreads * kChildren);
  EXPECT_EQ(total.find_histogram("lat")->count, 3u * kThreads * kChildren);
}

}  // namespace
}  // namespace muffin::obs
