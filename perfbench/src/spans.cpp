#include "spans.h"

#include <algorithm>
#include <fstream>
#include <map>

namespace perfbench {

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

void SpanLog::add(std::string name, std::int64_t start_ns,
                  std::int64_t end_ns, std::uint32_t tid) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), start_ns, end_ns, tid});
}

std::size_t SpanLog::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::vector<LayerTime> SpanLog::layer_times() const {
  std::vector<Span> spans;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans = spans_;
  }
  // Per lane, outer spans sort before the spans they contain; a stack of
  // open spans finds each span's parent, whose self time loses the
  // child's duration.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;
  });
  std::vector<double> self_ns(spans.size());
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self_ns[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    while (!open.empty() && (spans[open.back()].tid != spans[i].tid ||
                             spans[open.back()].end_ns <= spans[i].start_ns)) {
      open.pop_back();
    }
    if (!open.empty()) {
      self_ns[open.back()] -= std::min(spans[i].end_ns, spans[open.back()].end_ns) -
                              spans[i].start_ns;
    }
    open.push_back(i);
  }

  std::vector<LayerTime> table;
  std::map<std::string, std::size_t> row_of;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string layer = layer_of(spans[i].name);
    auto [it, inserted] = row_of.emplace(layer, table.size());
    if (inserted) table.push_back({layer, 0, 0.0, 0.0});
    LayerTime& row = table[it->second];
    ++row.spans;
    row.total_ms +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    row.self_ms += self_ns[i] / 1e6;
  }
  return table;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out.setf(std::ios::fixed);
  out.precision(3);
  const std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t origin = 0;
  for (const Span& span : spans_) {
    if (origin == 0 || span.start_ns < origin) origin = span.start_ns;
  }
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << span.name
        << "\",\"cat\":\"" << layer_of(span.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.tid
        << ",\"ts\":" << static_cast<double>(span.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(span.end_ns - span.start_ns) / 1e3
        << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
