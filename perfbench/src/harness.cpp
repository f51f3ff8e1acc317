#include "harness.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "tensor/ops.h"

namespace perfbench {

using muffin::serve::Prediction;

namespace {

/// Spans for one request in this many: enough to see the shape in a
/// trace viewer without a trace file the size of the run.
constexpr std::size_t kSpanEvery = 256;
constexpr std::uint32_t kClientLane = 1;
constexpr std::uint32_t kCollectorLane = 2;
constexpr auto kMonitorPeriod = std::chrono::milliseconds(20);

double us_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e3;
}

void wait_until_ns(std::int64_t target_ns) {
  for (;;) {
    const std::int64_t left = target_ns - now_ns();
    if (left <= 0) return;
    if (left > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100'000));
    } else {
      std::this_thread::yield();
    }
  }
}

/// Idle plus iowait ticks of all CPUs, from /proc/stat's first line; -1
/// when it cannot be read.
double idle_ticks() {
  std::ifstream stat("/proc/stat");
  std::string line;
  if (!std::getline(stat, line)) return -1.0;
  std::istringstream fields(line);
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0;
  if (!(fields >> cpu >> user >> nice >> system >> idle >> iowait) ||
      cpu != "cpu") {
    return -1.0;
  }
  return idle + iowait;
}

}  // namespace

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

HostMonitor::HostMonitor() {
  cpus_ = static_cast<double>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  ticks_per_s_ = static_cast<double>(std::max(1L, sysconf(_SC_CLK_TCK)));
  if (idle_ticks() < 0) return;  // nothing to sample
  thread_ = std::thread([this]() { sample_loop(); });
}

HostMonitor::~HostMonitor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  stop_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void HostMonitor::sample_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    lock.unlock();
    const Sample sample{now_ns(), idle_ticks() / ticks_per_s_,
                        process_cpu_seconds()};
    lock.lock();
    samples_.push_back(sample);
    stop_.wait_for(lock, kMonitorPeriod, [this]() { return stopping_; });
  }
}

double HostMonitor::interference(std::int64_t from_ns,
                                 std::int64_t to_ns) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (samples_.size() < 2) return 0.0;
  // The last sample at or before the start and the first at or after the
  // end, so the stretch measured covers the one asked about.
  const auto after_start = std::upper_bound(
      samples_.begin(), samples_.end(), from_ns,
      [](std::int64_t t, const Sample& s) { return t < s.at_ns; });
  const Sample& a =
      after_start == samples_.begin() ? samples_.front() : *(after_start - 1);
  const auto at_end = std::lower_bound(
      samples_.begin(), samples_.end(), to_ns,
      [](const Sample& s, std::int64_t t) { return s.at_ns < t; });
  const Sample& b = at_end == samples_.end() ? samples_.back() : *at_end;
  const double capacity =
      cpus_ * static_cast<double>(b.at_ns - a.at_ns) / 1e9;
  if (capacity <= 0) return 0.0;
  const double other = capacity - (b.idle_s - a.idle_s) - (b.own_s - a.own_s);
  return std::clamp(other / capacity, 0.0, 1.0);
}

void HostMonitor::annotate(std::span<Window> windows) const {
  for (Window& w : windows) w.interference = interference(w.start_ns, w.end_ns);
}

std::uint64_t digest_scores(std::span<const double> scores) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const double score : scores) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &score, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

Reply take_reply(std::uint32_t record, std::future<Prediction>& future) {
  Reply reply;
  reply.record = record;
  try {
    const Prediction prediction = future.get();
    reply.predicted = static_cast<std::uint32_t>(prediction.predicted);
    reply.digest = digest_scores(prediction.scores);
  } catch (const std::exception&) {
    reply.failed = true;
  }
  return reply;
}

Universe::Universe(const muffin::data::Dataset& base, std::size_t size,
                   std::uint64_t first_uid)
    : base_(&base), size_(size), first_uid_(first_uid) {
  if (base.size() == 0) throw std::invalid_argument("empty base set");
}

void Universe::fill(std::uint32_t i, muffin::data::Record& out) const {
  out = base_->record(base_index(i));
  out.uid = first_uid_ + i;
}

muffin::data::Record Universe::record(std::uint32_t i) const {
  muffin::data::Record record;
  fill(i, record);
  return record;
}

ReplyLog::ReplyLog(std::size_t universe)
    : digest_(universe, 0),
      predicted_(universe, 0),
      agreed_(universe, 0),
      differed_(universe, 0),
      open_(universe, 0) {}

void ReplyLog::add(const Reply& reply, bool open_loop) {
  ++replies_;
  if (reply.failed || reply.record >= agreed_.size()) {
    ++thrown_;
    return;
  }
  const std::uint32_t r = reply.record;
  if (open_loop) open_[r] = 1;
  if (agreed_[r] == 0 && differed_[r] == 0) {
    digest_[r] = reply.digest;
    predicted_[r] = reply.predicted;
  }
  if (reply.digest == digest_[r] && reply.predicted == predicted_[r]) {
    ++agreed_[r];
  } else {
    ++differed_[r];
  }
}

std::size_t ReplyLog::open_records() const {
  return static_cast<std::size_t>(
      std::count(open_.begin(), open_.end(), std::uint8_t{1}));
}

std::size_t ReplyLog::count_failures(const Expected& expected) const {
  std::size_t failures = thrown_;
  for (std::uint32_t r = 0; r < agreed_.size(); ++r) {
    if (agreed_[r] == 0 && differed_[r] == 0) continue;
    const std::vector<double> scores = expected(r);
    const bool first_right =
        digest_[r] == digest_scores(scores) &&
        predicted_[r] == muffin::tensor::argmax(scores);
    failures += differed_[r] + (first_right ? 0 : agreed_[r]);
  }
  return failures;
}

ClosedLoopResult closed_loop(const Submit& submit, const Universe& universe,
                             RecordStream& stream, double seconds,
                             std::size_t window, ReplyLog& log,
                             SpanLog& spans) {
  ClosedLoopResult result;
  std::vector<std::future<Prediction>> ring(window);
  std::vector<std::uint32_t> ring_record(window);
  std::size_t oldest = 0;
  std::size_t in_flight = 0;
  std::size_t sent = 0;
  muffin::data::Record request;

  const auto complete_oldest = [&]() {
    log.add(take_reply(ring_record[oldest], ring[oldest]), false);
    oldest = (oldest + 1) % window;
    --in_flight;
  };

  const double cpu_start = process_cpu_seconds();
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t now = start;
  std::vector<std::size_t> per_window;  ///< completions per rate window
  while (now < end) {
    if (in_flight == window) {
      complete_oldest();
      ++result.completed;
      const auto w = static_cast<std::size_t>((now - start) / kWindowNs);
      if (per_window.size() <= w) per_window.resize(w + 1, 0);
      ++per_window[w];
    }
    const std::uint32_t record = stream.next();
    universe.fill(record, request);
    const std::size_t slot = (oldest + in_flight) % window;
    const std::int64_t before = spans.enabled() ? now_ns() : 0;
    try {
      ring[slot] = submit(request);
      ring_record[slot] = record;
      ++in_flight;
    } catch (const std::exception&) {
      log.add({record, 0, 0, true}, false);
    }
    now = now_ns();
    if (spans.enabled() && sent % kSpanEvery == 0) {
      spans.add("serve.submit", before, now, kClientLane);
    }
    ++sent;
  }
  result.throughput_rps = static_cast<double>(result.completed) /
                          (static_cast<double>(now - start) / 1e9);
  result.cpu_seconds = process_cpu_seconds() - cpu_start;
  // Only whole windows: the last one is cut short by the phase end.
  if (per_window.size() > 1) per_window.pop_back();
  for (std::size_t w = 0; w < per_window.size(); ++w) {
    const std::int64_t from = start + static_cast<std::int64_t>(w) * kWindowNs;
    result.windows.push_back(
        {from, from + kWindowNs,
         static_cast<double>(per_window[w]) * 1e9 / kWindowNs, 0.0});
  }
  while (in_flight > 0) complete_oldest();
  return result;
}

OpenLoopResult open_loop(const Submit& submit, const Universe& universe,
                         RecordStream& stream, double rate, double seconds,
                         std::uint64_t seed, ReplyLog& log, SpanLog& spans) {
  OpenLoopResult result;
  muffin::CounterRng schedule_rng(seed);
  const std::vector<std::int64_t> schedule =
      poisson_schedule_ns(rate, seconds, schedule_rng);
  const std::size_t n = schedule.size();
  std::vector<std::uint32_t> records(n);
  for (std::uint32_t& record : records) record = stream.next();

  const bool traced = spans.enabled();
  std::vector<std::future<Prediction>> futures(n);
  std::vector<std::int64_t> sent_ns(n);
  std::vector<std::int64_t> returned_ns(traced ? n : 0);
  std::atomic<std::size_t> published{0};
  const std::int64_t t0 = now_ns() + 2'000'000;

  std::thread generator([&]() {
    muffin::data::Record request;
    for (std::size_t i = 0; i < n; ++i) {
      universe.fill(records[i], request);
      wait_until_ns(t0 + schedule[i]);
      sent_ns[i] = now_ns();
      try {
        futures[i] = submit(request);
      } catch (const std::exception&) {
        // Left invalid: the collector counts it as failed.
      }
      if (traced) {
        returned_ns[i] = now_ns();
        if (i % kSpanEvery == 0) {
          spans.add("serve.submit", sent_ns[i], returned_ns[i], kClientLane);
        }
      }
      published.store(i + 1, std::memory_order_release);
      published.notify_one();
    }
  });

  result.latency_us.reserve(n);
  result.lag_us.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t seen = published.load(std::memory_order_acquire);
         seen <= j; seen = published.load(std::memory_order_acquire)) {
      published.wait(seen, std::memory_order_acquire);
    }
    Reply reply{records[j], 0, 0, true};
    if (futures[j].valid()) reply = take_reply(records[j], futures[j]);
    const std::int64_t done = now_ns();
    log.add(reply, true);
    const std::int64_t intended = t0 + schedule[j];
    result.latency_us.push_back(reply.failed
                                    ? std::numeric_limits<double>::infinity()
                                    : us_between(intended, done));
    result.lag_us.push_back(us_between(intended, sent_ns[j]));
    if (traced) {
      result.submit_us.push_back(us_between(sent_ns[j], returned_ns[j]));
      result.wait_us.push_back(us_between(returned_ns[j], done));
      if (j % kSpanEvery == 0) {
        spans.add("serve.wait", returned_ns[j], done, kCollectorLane);
      }
    }
  }
  generator.join();
  result.window_p50_us =
      window_percentiles(schedule, result.latency_us, kWindowNs, 0.50);
  result.window_p95_us =
      window_percentiles(schedule, result.latency_us, kWindowNs, 0.95);
  for (auto* windows : {&result.window_p50_us, &result.window_p95_us}) {
    for (Window& w : *windows) {
      w.start_ns += t0;
      w.end_ns += t0;
    }
  }
  return result;
}

}  // namespace perfbench
