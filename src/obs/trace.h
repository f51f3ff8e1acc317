// Sampled request tracing: Chrome trace_event JSON for the serving path.
//
// When tracing is enabled (the MUFFIN_TRACE environment variable names an
// output file, or a test calls Tracer::configure), a deterministic 1-in-N
// sampler picks requests at the edge (engine submit or predict_batch /
// RPC client submit / RPC server frame decode); every stage a sampled
// request passes through records a *complete* ("ph":"X") event with
// microsecond timestamps on one shared steady clock:
//
//   serve.queue        enqueue -> batch formation (per sampled request)
//   serve.batch        whole batch execution (pool worker or caller)
//   serve.score_batch  body-model batch scoring
//   serve.fuse         consensus gate + head forward
//   serve.reply        promise delivery
//   serve.request      enqueue -> reply, end to end (per sampled request)
//   rpc.client.*       encode / write / roundtrip on the client side
//   rpc.server.*       decode / encode / write on the server side
//
// The collected events dump as {"traceEvents":[...]} — loadable directly
// in chrome://tracing or Perfetto — either explicitly (write()) or at
// process exit when MUFFIN_TRACE is set. The buffer is bounded; events
// past the cap are dropped and counted (dropped()), never reallocated
// unboundedly under load.
//
// Cost when disabled: sampling is one relaxed atomic load; spans compile
// to a bool and two branches. With -DMUFFIN_OBS_DISABLED tracing is
// compiled out entirely (enabled() is constant false).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace muffin::obs {

/// One Chrome trace_event "complete" event.
struct TraceEvent {
  std::string name;
  double ts_us = 0.0;   ///< start, microseconds on the tracer clock
  double dur_us = 0.0;  ///< duration, microseconds
  std::uint64_t tid = 0;
  std::string args;  ///< pre-rendered JSON object body ("\"k\":1"), may be ""
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// The process-wide tracer. First access reads MUFFIN_TRACE (output
  /// path; empty/unset leaves tracing off) and MUFFIN_TRACE_SAMPLE
  /// (sample every request whose ordinal is divisible by round(1/rate);
  /// default rate 1.0 = every request).
  [[nodiscard]] static Tracer& instance();

  /// Programmatic setup (tests, CLI): enable with a 1-in-`every`
  /// sampler, or disable with enabled=false. Clears buffered events.
  void configure(bool enabled, std::uint64_t sample_every = 1,
                 std::string auto_flush_path = {});

  [[nodiscard]] bool enabled() const noexcept {
#if defined(MUFFIN_OBS_DISABLED)
    return false;
#else
    return enabled_.load(std::memory_order_relaxed);
#endif
  }

  /// Sampling decision for a new request at the serving edge. True for
  /// every sample_every-th call while enabled.
  [[nodiscard]] bool sample() noexcept {
    if (!enabled()) return false;
    return ordinal_.fetch_add(1, std::memory_order_relaxed) %
               sample_every_.load(std::memory_order_relaxed) ==
           0;
  }

  /// Microseconds of `tp` on the tracer clock (for events whose start
  /// was stamped before the span object existed, e.g. queue waits).
  [[nodiscard]] double to_us(Clock::time_point tp) const noexcept {
    return std::chrono::duration<double, std::micro>(tp - epoch_).count();
  }
  [[nodiscard]] double now_us() const noexcept { return to_us(Clock::now()); }

  /// Record one complete event (thread-safe; dropped beyond the cap).
  void record(std::string name, double ts_us, double dur_us,
              std::string args = {});

  [[nodiscard]] std::size_t event_count() const;
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Copy of the buffered events (tests).
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Write {"traceEvents":[...]} to `path`; returns false on I/O error.
  bool write(const std::string& path) const;
  /// Write to the configured auto-flush path, if any.
  void flush();

  /// Drop every buffered event (keeps enabled/sampling state).
  void clear();

 private:
  Tracer();
  ~Tracer() = default;

  static constexpr std::size_t kMaxEvents = 1u << 20;

  Clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> sample_every_{1};
  std::atomic<std::uint64_t> ordinal_{0};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::string auto_flush_path_;
};

/// RAII span: stamps its start on construction and records a complete
/// event on destruction when `active`. `name` must outlive the span
/// (string literals at every call site).
class TraceSpan {
 public:
  TraceSpan(const char* name, bool active, std::string args = {})
      : name_(name), active_(active), args_(std::move(args)) {
    if (active_) start_us_ = Tracer::instance().now_us();
  }
  ~TraceSpan() {
    if (active_) {
      Tracer& tracer = Tracer::instance();
      tracer.record(name_, start_us_, tracer.now_us() - start_us_,
                    std::move(args_));
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  bool active_;
  std::string args_;
  double start_us_ = 0.0;
};

}  // namespace muffin::obs
