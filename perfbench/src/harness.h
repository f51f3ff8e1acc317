// Load generation and reply checking for the serving workloads.
//
// closed_loop() keeps a fixed window of requests in flight from one client
// thread and reports completed requests per second. open_loop() sends on
// a Poisson schedule from a generator thread while the calling thread
// collects replies; each request's latency runs from the time it was due
// to be sent, so a stall in the system or in the generator is charged to
// every request it delays (no coordinated omission).
//
// The harness's memory is fixed by the universe and the frozen open-loop
// rates, never by how fast the program serves: request records are built
// on demand from a Universe, and replies are condensed per record into a
// ReplyLog, which is checked against FusedModel::scores after the timed
// phases, so checking costs nothing inside them.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "data/dataset.h"
#include "serve/engine.h"
#include "spans.h"

namespace perfbench {

/// The request records: copies of a base set under fresh uids. Record i
/// is base[i % base.size()] with uid first_uid + i; scores depend on the
/// uid, so each is a distinct input with a known label and groups.
class Universe {
 public:
  Universe(const muffin::data::Dataset& base, std::size_t size,
           std::uint64_t first_uid);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const muffin::data::Dataset& base() const { return *base_; }
  /// Index of record i's source in the base set.
  [[nodiscard]] std::size_t base_index(std::uint32_t i) const {
    return i % base_->size();
  }
  /// Write record i into `out`, reusing its buffers.
  void fill(std::uint32_t i, muffin::data::Record& out) const;
  [[nodiscard]] muffin::data::Record record(std::uint32_t i) const;

 private:
  const muffin::data::Dataset* base_;
  std::size_t size_;
  std::uint64_t first_uid_;
};

/// One request's outcome.
struct Reply {
  std::uint32_t record = 0;     ///< universe index that was asked for
  std::uint32_t predicted = 0;  ///< served argmax class
  std::uint64_t digest = 0;     ///< digest_scores() of the served scores
  bool failed = false;          ///< submit or scoring threw
};

/// 64-bit FNV-1a over the bit patterns of `scores`.
[[nodiscard]] std::uint64_t digest_scores(std::span<const double> scores);

/// Wait for `future` and condense its outcome into a Reply.
[[nodiscard]] Reply take_reply(std::uint32_t record,
                               std::future<muffin::serve::Prediction>& future);

/// Every reply of a run, condensed per universe record: the first answer
/// (class and score digest), how many answers agreed with it and how many
/// did not, and whether an open-loop phase asked for the record. Written
/// by one thread at a time.
class ReplyLog {
 public:
  using Expected = std::function<std::vector<double>(std::uint32_t record)>;

  explicit ReplyLog(std::size_t universe);

  void add(const Reply& reply, bool open_loop);

  /// Replies added, failed ones included.
  [[nodiscard]] std::size_t replies() const { return replies_; }
  /// Whether an open-loop phase was answered for `record`.
  [[nodiscard]] bool open(std::uint32_t record) const {
    return open_[record] != 0;
  }
  /// The class first served for `record`.
  [[nodiscard]] std::uint32_t predicted(std::uint32_t record) const {
    return predicted_[record];
  }
  /// Distinct records an open-loop phase was answered for.
  [[nodiscard]] std::size_t open_records() const;

  /// Failed operations: every reply that threw, every answer that differs
  /// from its record's first, and, where the first answer differs from
  /// `expected` (in any bit or in the class), every answer to that record.
  [[nodiscard]] std::size_t count_failures(const Expected& expected) const;

 private:
  std::size_t replies_ = 0;
  std::size_t thrown_ = 0;
  std::vector<std::uint64_t> digest_;
  std::vector<std::uint32_t> predicted_;
  std::vector<std::uint32_t> agreed_;    ///< answers equal to the first
  std::vector<std::uint32_t> differed_;  ///< answers unlike the first
  std::vector<std::uint8_t> open_;
};

/// The serving surface under test: InferenceEngine::submit or
/// ShardRouter::submit.
using Submit = std::function<std::future<muffin::serve::Prediction>(
    const muffin::data::Record&)>;

/// Length of the windows every serving phase is measured in.
constexpr std::int64_t kWindowNs = 250'000'000;

/// How much of the machine's CPU went to anything but this process: other
/// processes, and time the hypervisor gave to other guests (steal). A
/// background thread samples /proc/stat's idle time and this process's
/// CPU time every 20 ms; what is neither, over a stretch, is interference.
/// Where /proc/stat cannot be read it reports 0 throughout.
class HostMonitor {
 public:
  HostMonitor();
  ~HostMonitor();
  HostMonitor(const HostMonitor&) = delete;
  HostMonitor& operator=(const HostMonitor&) = delete;

  /// Share of all CPUs, in [0, 1], neither idle nor this process's over
  /// [from_ns, to_ns] (now_ns() times).
  [[nodiscard]] double interference(std::int64_t from_ns,
                                    std::int64_t to_ns) const;
  /// Fill in `interference` for each window.
  void annotate(std::span<Window> windows) const;

 private:
  struct Sample {
    std::int64_t at_ns;
    double idle_s;  ///< idle + iowait of all CPUs, from /proc/stat
    double own_s;   ///< this process's CPU time
  };
  void sample_loop();

  double cpus_ = 1.0;
  double ticks_per_s_ = 100.0;
  mutable std::mutex mutex_;
  std::condition_variable stop_;
  bool stopping_ = false;     ///< guarded by mutex_
  std::vector<Sample> samples_;  ///< guarded by mutex_
  std::thread thread_;
};

/// CPU time this process has used, all threads, in seconds. The kernel
/// leaves out time the hypervisor gave to other guests (steal), so it
/// follows the work done rather than how busy the host was.
[[nodiscard]] double process_cpu_seconds();

struct ClosedLoopResult {
  double throughput_rps = 0.0;  ///< completed per second, whole phase
  /// Completions per second in each whole window of the phase.
  std::vector<Window> windows;
  std::size_t completed = 0;  ///< inside the timed phase
  double cpu_seconds = 0.0;   ///< process CPU time over the timed phase
};

/// One client thread, `window` requests in flight, for `seconds`.
ClosedLoopResult closed_loop(const Submit& submit, const Universe& universe,
                             RecordStream& stream, double seconds,
                             std::size_t window, ReplyLog& log,
                             SpanLog& spans);

struct OpenLoopResult {
  std::vector<double> latency_us;  ///< completion minus intended send time
  std::vector<double> lag_us;      ///< actual minus intended send time
  std::vector<double> submit_us;   ///< time inside submit(), traced only
  std::vector<double> wait_us;     ///< submit() return to reply, traced only
  /// Latency p50 and p95 in each window of intended send times.
  std::vector<Window> window_p50_us, window_p95_us;
};

/// Poisson arrivals at `rate` per second for `seconds`, schedule drawn
/// from `seed`. Failed requests count with infinite latency.
OpenLoopResult open_loop(const Submit& submit, const Universe& universe,
                         RecordStream& stream, double rate, double seconds,
                         std::uint64_t seed, ReplyLog& log, SpanLog& spans);

}  // namespace perfbench
