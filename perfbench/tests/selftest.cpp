// Tests for the benchmark itself: the statistics it reports, the inputs it
// generates from a seed, and the reply log that decides a run's
// correctness.
//
//   .bench_build/perfbench/perfbench_selftest    (exit code 0 = pass)
//
// or `python3 perfbench/run.py --selftest`, which builds it first.
#include <cmath>
#include <future>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "harness.h"
#include "spans.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

/// Exact q-quantile by definition: the smallest sample x with
/// #{samples <= x} >= q * n.
double exact_quantile(const std::vector<double>& samples, double q) {
  double best = INFINITY;
  for (const double x : samples) {
    std::size_t at_or_below = 0;
    for (const double y : samples) at_or_below += y <= x;
    if (static_cast<double>(at_or_below) >=
            q * static_cast<double>(samples.size()) &&
        x < best) {
      best = x;
    }
  }
  return best;
}

void test_percentiles_match_exact_quantiles() {
  muffin::CounterRng rng(7);
  for (const std::size_t n : {1u, 2u, 10u, 99u, 1000u, 1234u}) {
    std::vector<double> samples(n);
    for (double& s : samples) s = std::floor(rng.uniform() * 500.0);  // ties
    const perfbench::Summary summary = perfbench::summarize(samples);
    check(summary.count == n, "summary counts every sample");
    const std::pair<const perfbench::Percentile*, double> cases[] = {
        {&summary.p50, 0.50}, {&summary.p95, 0.95},
        {&summary.p99, 0.99}, {&summary.p999, 0.999}};
    for (const auto& [p, q] : cases) {
      check(p->value == exact_quantile(samples, q),
            "p" + std::to_string(q) + " of " + std::to_string(n) +
                " samples equals the exact quantile");
      check(p->samples == n, "percentile reports its sample count");
      std::size_t above = 0;
      for (const double s : samples) above += s > p->value;
      check(p->beyond == above, "beyond counts the larger samples");
    }
  }
  const perfbench::Summary empty = perfbench::summarize({});
  check(empty.count == 0 && empty.p50.samples == 0, "empty sample set");
}

void test_quartiles_match_python() {
  // Reference values from Python's statistics.quantiles(values, n=4).
  perfbench::Quartiles q =
      perfbench::quartiles({3.1, 1.2, 5.5, 2.0, 9.9, 4.4, 7.0, 6.1, 8.8, 0.5});
  check(near(q.q1, 1.8) && near(q.median, 4.95) && near(q.q3, 7.45),
        "quartiles of ten values");
  q = perfbench::quartiles({10.0, 20.0, 30.0});
  check(near(q.q1, 10.0) && near(q.median, 20.0) && near(q.q3, 30.0),
        "quartiles of three values");
  q = perfbench::quartiles({1.0, 2.0});
  check(near(q.q1, 0.75) && near(q.median, 1.5) && near(q.q3, 2.25),
        "quartiles of two values extrapolate like Python");
  check(near(perfbench::quartiles({1.0, 2.0}).spread(), 1.0),
        "spread is the interquartile distance over the median");
}

void test_windows_and_least_disturbed() {
  const std::vector<std::int64_t> at = {0, 10, 20, 250, 260, 900};
  const std::vector<double> values = {3, 1, 2, 9, 7, 5};
  const std::vector<perfbench::Window> windows =
      perfbench::window_percentiles(at, values, 250, 0.5);
  check(windows.size() == 3, "one window per non-empty stretch");
  check(windows[0].start_ns == 0 && windows[0].end_ns == 250 &&
            windows[0].value == 2,
        "first window's median");
  check(windows[1].value == 7, "second window's median");
  check(windows[2].start_ns == 750 && windows[2].end_ns == 1000,
        "an empty stretch is skipped, the next window keeps its place");

  const auto with = [](std::vector<double> interference) {
    std::vector<perfbench::Window> ws;
    for (std::size_t i = 0; i < interference.size(); ++i) {
      ws.push_back({0, 1, static_cast<double>(i), interference[i]});
    }
    return ws;
  };
  check(perfbench::least_disturbed(with({0.0, 0.01, 0.02, 0.03})).size() == 4,
        "every quiet window is kept");
  check(perfbench::least_disturbed(with({0.0, 0.5, 0.01, 0.4, 0.0, 0.02})) ==
            std::vector<double>({0, 2, 4, 5}),
        "disturbed windows are dropped when at least half are quiet");
  check(perfbench::least_disturbed(with({0.3, 0.1, 0.2, 0.4, 0.5})) ==
            std::vector<double>({1, 2, 0}) ||
            perfbench::least_disturbed(with({0.3, 0.1, 0.2, 0.4, 0.5})) ==
                std::vector<double>({0, 1, 2}),
        "otherwise the less disturbed half is kept");
  check(perfbench::least_disturbed(with({0.2, 0.2, 0.2})).size() == 3,
        "ties at the cut are kept");
  check(perfbench::least_disturbed({}).empty(), "no windows, no values");
}

void test_host_monitor_reports_a_share() {
  const perfbench::HostMonitor host;
  const std::int64_t start = perfbench::now_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  const double share = host.interference(start, perfbench::now_ns());
  check(share >= 0.0 && share <= 1.0, "interference is a share of the CPUs");
}

void test_generators_are_deterministic_per_seed() {
  using Kind = perfbench::RecordStream::Kind;
  for (const Kind kind : {Kind::Zipf, Kind::Unique}) {
    perfbench::RecordStream a(kind, 5000, 0.99, 42);
    perfbench::RecordStream b(kind, 5000, 0.99, 42);
    perfbench::RecordStream c(kind, 5000, 0.99, 43);
    bool same = true;
    bool differs = false;
    for (int i = 0; i < 20000; ++i) {
      const std::uint32_t x = a.next();
      same = same && x == b.next();
      differs = differs || x != c.next();
    }
    check(same, "one seed gives one record stream");
    check(differs, "another seed gives another record stream");
  }
  muffin::CounterRng r1(9), r2(9);
  check(perfbench::poisson_schedule_ns(1000.0, 2.0, r1) ==
            perfbench::poisson_schedule_ns(1000.0, 2.0, r2),
        "one seed gives one arrival schedule");
  muffin::CounterRng r3(11);
  const std::vector<std::int64_t> schedule =
      perfbench::poisson_schedule_ns(20000.0, 5.0, r3);
  check(std::abs(static_cast<double>(schedule.size()) - 100000.0) < 1500.0,
        "Poisson schedule keeps its rate");
}

void test_streams_have_their_shape() {
  using Kind = perfbench::RecordStream::Kind;
  perfbench::RecordStream unique(Kind::Unique, 1000, 0.99, 5);
  std::vector<int> seen(1000, 0);
  for (int i = 0; i < 1000; ++i) ++seen[unique.next()];
  bool each_once = true;
  for (const int s : seen) each_once = each_once && s == 1;
  check(each_once, "the unique stream repeats nothing within its universe");

  perfbench::RecordStream zipf(Kind::Zipf, 1000, 0.99, 5);
  std::vector<int> hits(1000, 0);
  for (int i = 0; i < 100000; ++i) ++hits[zipf.next()];
  int hottest = 0;
  for (const int h : hits) hottest = std::max(hottest, h);
  // Zipf(0.99) over 1000 ranks gives rank 0 about 13% of draws.
  check(hottest > 10000 && hottest < 16000, "Zipf's hottest record share");
}

void test_oracle_mismatch_is_a_failed_operation() {
  const std::vector<std::vector<double>> expected = {
      {0.25, 0.75}, {0.6, 0.4}, {0.1, 0.9}};
  std::size_t computed = 0;
  const perfbench::ReplyLog::Expected oracle = [&](std::uint32_t record) {
    ++computed;
    return expected[record];
  };
  const auto reply = [](std::uint32_t record, std::vector<double> scores,
                        std::size_t predicted) {
    std::promise<muffin::serve::Prediction> promise;
    muffin::serve::Prediction prediction;
    prediction.scores = std::move(scores);
    prediction.predicted = predicted;
    promise.set_value(prediction);
    auto future = promise.get_future();
    return perfbench::take_reply(record, future);
  };

  perfbench::ReplyLog good(expected.size());
  good.add(reply(0, {0.25, 0.75}, 1), false);
  good.add(reply(1, {0.6, 0.4}, 0), true);
  good.add(reply(0, {0.25, 0.75}, 1), true);
  check(good.count_failures(oracle) == 0, "matching replies pass");
  check(computed == 2, "the oracle scores each answered record once");
  check(good.replies() == 3, "every reply is counted");
  check(good.open_records() == 2 && good.open(0) && !good.open(2),
        "open-loop records are tracked");

  // One bit off in one score, a wrong class, and a request that threw.
  perfbench::ReplyLog bad(expected.size());
  bad.add(reply(0, {0.25, 0.75}, 1), false);
  bad.add(reply(0, {0.25, std::nextafter(0.75, 1.0)}, 1), false);
  bad.add(reply(1, {0.6, 0.4}, 1), true);
  bad.add(reply(1, {0.6, 0.4}, 1), true);
  std::promise<muffin::serve::Prediction> broken;
  broken.set_exception(std::make_exception_ptr(std::runtime_error("shed")));
  auto thrown = broken.get_future();
  const perfbench::Reply failed = perfbench::take_reply(2, thrown);
  check(failed.failed, "a thrown request is recorded as failed");
  bad.add(failed, true);
  check(bad.count_failures(oracle) == 4,
        "each mismatch and each error counts as one failed operation");
  check(!bad.open(2), "a thrown request answers nothing");
}

void test_universe_builds_distinct_records() {
  muffin::data::Dataset base("base", 2, {{"site", {"a", "b"}}});
  for (std::uint64_t uid = 0; uid < 3; ++uid) {
    muffin::data::Record record;
    record.uid = uid;
    record.label = uid % 2;
    record.groups = {uid % 2};
    record.features = {static_cast<double>(uid), 1.0};
    base.add_record(record);
  }
  const perfbench::Universe universe(base, 7, 1000);
  muffin::data::Record scratch;
  universe.fill(5, scratch);
  check(scratch.uid == 1005, "record i has uid first_uid + i");
  check(universe.base_index(5) == 2 && scratch.label == 0 &&
            scratch.features == base.record(2).features,
        "record i copies base record i % base size");
  universe.fill(1, scratch);
  check(scratch.uid == 1001 && scratch.features == base.record(1).features,
        "a reused record takes the new contents");
}

void test_self_time_subtracts_nested_spans() {
  perfbench::SpanLog log(true);
  log.add("serve.request", 0, 1000, 1);
  log.add("models.score", 100, 400, 1);
  log.add("core.fuse", 500, 600, 1);
  log.add("serve.request", 0, 50, 2);  // another lane: not nested
  const std::vector<perfbench::LayerTime> table = log.layer_times();
  for (const perfbench::LayerTime& row : table) {
    if (row.layer == "serve") {
      check(near(row.total_ms, 1050 / 1e6), "serve total time");
      check(near(row.self_ms, 650 / 1e6), "serve self time excludes children");
    }
    if (row.layer == "models") check(near(row.self_ms, 300 / 1e6), "leaf self");
  }
  perfbench::SpanLog off(false);
  off.add("serve.x", 0, 1);
  check(off.size() == 0, "a disabled log records nothing");
}

}  // namespace

int main() {
  test_percentiles_match_exact_quantiles();
  test_quartiles_match_python();
  test_windows_and_least_disturbed();
  test_host_monitor_reports_a_share();
  test_generators_are_deterministic_per_seed();
  test_streams_have_their_shape();
  test_oracle_mismatch_is_a_failed_operation();
  test_universe_builds_distinct_records();
  test_self_time_subtracts_nested_spans();
  std::cout << (failures == 0 ? "perfbench selftest: all passed\n"
                              : "perfbench selftest: FAILED\n");
  return failures == 0 ? 0 : 1;
}
