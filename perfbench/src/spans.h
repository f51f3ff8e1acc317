// The benchmark's own spans: wall-clock intervals recorded around calls
// into the program's layers, kept in memory and written out at the end as
// a Chrome trace (loadable in chrome://tracing or Perfetto).
//
// A span's name is "<layer>.<call>"; the layer is the part before the
// first dot. A layer's self time is its spans' duration minus the part
// covered by spans nested inside them on the same thread, so a table of
// self times adds up to the traced wall time without double counting.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;
};

struct LayerTime {
  std::string layer;
  std::size_t spans = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class SpanLog {
 public:
  /// A disabled log records nothing and costs one branch per span.
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Record one finished span on thread lane `tid` (thread-safe).
  void add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
           std::uint32_t tid = 0);

  /// Records a span from construction to destruction.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name, std::uint32_t tid = 0)
        : log_(log), name_(std::move(name)), tid_(tid),
          start_ns_(log.enabled() ? now_ns() : 0) {}
    ~Scope() {
      if (log_.enabled()) log_.add(std::move(name_), start_ns_, now_ns(), tid_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::string name_;
    std::uint32_t tid_;
    std::int64_t start_ns_;
  };

  /// Total and self time per layer, in first-seen order.
  [[nodiscard]] std::vector<LayerTime> layer_times() const;

  /// Write {"traceEvents":[...]} to `path`; false when it cannot be
  /// written.
  bool write_chrome_trace(const std::string& path) const;

  [[nodiscard]] std::size_t size() const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

/// The layer a span belongs to: its name up to the first dot.
std::string layer_of(const std::string& span_name);

}  // namespace perfbench
