#include "obs/metrics.h"

#include <cmath>
#include <sstream>

#include "common/error.h"

namespace muffin::obs {

namespace {

bool strictly_increasing_finite(const std::vector<double>& bounds) {
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (!std::isfinite(bounds[i])) return false;
    if (i > 0 && !(bounds[i - 1] < bounds[i])) return false;
  }
  return true;
}

template <typename T>
const T* find_by_name(const std::vector<T>& items, std::string_view name) {
  for (const T& item : items) {
    if (item.name == name) return &item;
  }
  return nullptr;
}

template <typename T>
T* find_by_name(std::vector<T>& items, std::string_view name) {
  for (T& item : items) {
    if (item.name == name) return &item;
  }
  return nullptr;
}

void sort_by_name(MetricsSnapshot& snap) {
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
}

}  // namespace

// --- histogram ---------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  MUFFIN_REQUIRE(strictly_increasing_finite(bounds_),
                 "histogram bounds must be finite and strictly increasing");
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const std::atomic<std::uint64_t>& c : counts_) {
    total += c.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> counts;
  counts.reserve(counts_.size());
  for (const std::atomic<std::uint64_t>& c : counts_) {
    counts.push_back(c.load(std::memory_order_relaxed));
  }
  return counts;
}

void Histogram::add(const HistogramSnapshot& other) noexcept {
  for (std::size_t i = 0; i < counts_.size() && i < other.counts.size();
       ++i) {
    counts_[i].fetch_add(other.counts[i], std::memory_order_relaxed);
  }
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + other.sum,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::reset() noexcept {
  for (std::atomic<std::uint64_t>& c : counts_) {
    c.store(0, std::memory_order_relaxed);
  }
  sum_.store(0.0, std::memory_order_relaxed);
}

// --- snapshots ----------------------------------------------------------------

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  MUFFIN_REQUIRE(bounds == other.bounds && counts.size() == other.counts.size(),
                 "cannot merge histogram '" + name +
                     "' with different bucket bounds");
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  count += other.count;
  sum += other.sum;
}

double HistogramSnapshot::mean() const {
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

double HistogramSnapshot::percentile(double q) const {
  MUFFIN_REQUIRE(q >= 0.0 && q <= 100.0, "percentile q must be in [0, 100]");
  if (count == 0 || bounds.empty() || counts.size() != bounds.size() + 1) {
    return 0.0;
  }
  const std::uint64_t rank =
      q <= 0.0 ? 1
               : std::min(count, static_cast<std::uint64_t>(std::ceil(
                                     q / 100.0 * static_cast<double>(count))));
  std::size_t bucket = 0;
  std::uint64_t seen = counts[0];
  while (seen < rank && bucket + 1 < counts.size()) seen += counts[++bucket];
  if (bucket == 0) return bounds.front();
  if (bucket == bounds.size()) return bounds.back();
  // Every value in (lo, hi] lies within (hi - lo) / (hi + lo) of the
  // harmonic point 2·lo·hi / (lo + hi), the least-relative-error answer.
  const double lo = bounds[bucket - 1];
  const double hi = bounds[bucket];
  return lo > 0.0 ? 2.0 * lo * hi / (lo + hi) : (lo + hi) / 2.0;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const CounterSnapshot& c : other.counters) {
    if (CounterSnapshot* mine = find_by_name(counters, c.name)) {
      mine->value += c.value;
    } else {
      counters.push_back(c);
    }
  }
  for (const GaugeSnapshot& g : other.gauges) {
    if (GaugeSnapshot* mine = find_by_name(gauges, g.name)) {
      mine->value += g.value;
    } else {
      gauges.push_back(g);
    }
  }
  for (const HistogramSnapshot& h : other.histograms) {
    if (HistogramSnapshot* mine = find_by_name(histograms, h.name)) {
      mine->merge(h);
    } else {
      histograms.push_back(h);
    }
  }
  sort_by_name(*this);
}

const CounterSnapshot* MetricsSnapshot::find_counter(
    std::string_view name) const {
  return find_by_name(counters, name);
}

const GaugeSnapshot* MetricsSnapshot::find_gauge(std::string_view name) const {
  return find_by_name(gauges, name);
}

const HistogramSnapshot* MetricsSnapshot::find_histogram(
    std::string_view name) const {
  return find_by_name(histograms, name);
}

std::uint64_t MetricsSnapshot::counter_value(std::string_view name) const {
  const CounterSnapshot* found = find_counter(name);
  return found != nullptr ? found->value : 0;
}

std::int64_t MetricsSnapshot::gauge_value(std::string_view name) const {
  const GaugeSnapshot* found = find_gauge(name);
  return found != nullptr ? found->value : 0;
}

// --- registry ------------------------------------------------------------------

struct Registry::Entry {
  std::string name;
  Kind kind = Kind::Counter;
  Counter counter;
  Gauge gauge;
  std::unique_ptr<Histogram> histogram;  ///< only for Kind::Histogram
};

Registry::Registry() = default;

Registry::Registry(Registry& parent) : parent_(&parent) {
  const std::lock_guard<std::mutex> lock(parent_->mutex_);
  parent_->children_.push_back(this);
}

Registry::~Registry() {
  if (parent_ == nullptr) return;
  // Under the parent's lock, so a concurrent parent snapshot sees this
  // registry either as a live child or folded in — never both, never
  // neither. Lock order is always parent before child.
  const std::lock_guard<std::mutex> lock(parent_->mutex_);
  const MetricsSnapshot mine = snapshot();
  for (const CounterSnapshot& c : mine.counters) {
    if (Entry* entry = parent_->find_locked(c.name)) entry->counter.inc(c.value);
  }
  for (const HistogramSnapshot& h : mine.histograms) {
    if (Entry* entry = parent_->find_locked(h.name)) entry->histogram->add(h);
  }
  std::vector<Registry*>& siblings = parent_->children_;
  siblings.erase(std::find(siblings.begin(), siblings.end(), this));
}

Registry::Entry* Registry::find_locked(std::string_view name) const {
  for (const std::unique_ptr<Entry>& entry : entries_) {
    if (entry->name == name) return entry.get();
  }
  return nullptr;
}

Registry::Entry& Registry::find_or_create(std::string_view name, Kind kind,
                                          const std::vector<double>& bounds) {
  MUFFIN_REQUIRE(!name.empty(), "metric name must be non-empty");
  // Ancestors first, without holding our own lock (parent-before-child
  // order): the name then exists up the tree, which is what lets a
  // destroyed child fold in and a snapshot merge without conflicts.
  if (parent_ != nullptr) (void)parent_->find_or_create(name, kind, bounds);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (Entry* entry = find_locked(name)) {
    MUFFIN_REQUIRE(entry->kind == kind,
                   "metric '" + entry->name +
                       "' already registered with a different kind");
    if (kind == Kind::Histogram) {
      MUFFIN_REQUIRE(entry->histogram->bounds() == bounds,
                     "histogram '" + entry->name +
                         "' already registered with different buckets");
    }
    return *entry;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->kind = kind;
  if (kind == Kind::Histogram) {
    entry->histogram = std::make_unique<Histogram>(bounds);
  }
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

Counter& Registry::counter(std::string_view name) {
  return find_or_create(name, Kind::Counter, {}).counter;
}

Gauge& Registry::gauge(std::string_view name) {
  return find_or_create(name, Kind::Gauge, {}).gauge;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  return *find_or_create(name, Kind::Histogram, bounds).histogram;
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  const std::lock_guard<std::mutex> lock(mutex_);
  // Histograms before counters: recording sites count a request before
  // they time it, so reading the timings first keeps every snapshot's
  // latency count at or below its request count.
  for (const std::unique_ptr<Entry>& entry : entries_) {
    if (entry->kind != Kind::Histogram) continue;
    HistogramSnapshot h;
    h.name = entry->name;
    h.bounds = entry->histogram->bounds();
    h.counts = entry->histogram->bucket_counts();
    for (const std::uint64_t c : h.counts) h.count += c;
    h.sum = entry->histogram->sum();
    snap.histograms.push_back(std::move(h));
  }
  for (const std::unique_ptr<Entry>& entry : entries_) {
    if (entry->kind == Kind::Counter) {
      snap.counters.push_back({entry->name, entry->counter.value()});
    } else if (entry->kind == Kind::Gauge) {
      snap.gauges.push_back({entry->name, entry->gauge.value()});
    }
  }
  for (const Registry* child : children_) snap.merge(child->snapshot());
  sort_by_name(snap);
  return snap;
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const std::unique_ptr<Entry>& entry : entries_) {
    switch (entry->kind) {
      case Kind::Counter:
        entry->counter.reset();
        break;
      case Kind::Gauge:
        entry->gauge.reset();
        break;
      case Kind::Histogram:
        entry->histogram->reset();
        break;
    }
  }
  for (Registry* child : children_) child->reset();
}

Registry& registry() {
  // Never destroyed: static-storage engines and metric references may
  // outlive any destruction order we could pick.
  static Registry* const instance = new Registry();
  return *instance;
}

const std::vector<double>& latency_us_buckets() {
  static const std::vector<double> buckets = []() {
    constexpr int kOctaves = 24;
    constexpr int kSubBuckets = 64;
    std::vector<double> bounds = {1.0};
    for (int octave = 0; octave < kOctaves; ++octave) {
      const double base = std::ldexp(1.0, octave);
      for (int sub = 1; sub <= kSubBuckets; ++sub) {
        bounds.push_back(base + base * sub / kSubBuckets);
      }
    }
    return bounds;
  }();
  return buckets;
}

const std::vector<double>& batch_size_buckets() {
  static const std::vector<double> buckets = {1,  2,  4,   8,   16, 32,
                                              64, 128, 256, 512};
  return buckets;
}

// --- exposition ------------------------------------------------------------------

namespace {

/// Prometheus metric name: "muffin_" prefix, [a-zA-Z0-9_] only.
std::string prom_name(const std::string& name) {
  std::string out = "muffin_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

/// Shortest-round-trip style double rendering without trailing noise.
std::string render_double(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

}  // namespace

std::string MetricsSnapshot::to_prometheus() const {
  std::ostringstream os;
  for (const CounterSnapshot& c : counters) {
    const std::string name = prom_name(c.name);
    os << "# TYPE " << name << " counter\n"
       << name << " " << c.value << "\n";
  }
  for (const GaugeSnapshot& g : gauges) {
    const std::string name = prom_name(g.name);
    os << "# TYPE " << name << " gauge\n"
       << name << " " << g.value << "\n";
  }
  for (const HistogramSnapshot& h : histograms) {
    const std::string name = prom_name(h.name);
    os << "# TYPE " << name << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += h.counts[i];
      os << name << "_bucket{le=\"" << render_double(h.bounds[i]) << "\"} "
         << cumulative << "\n";
    }
    os << name << "_bucket{le=\"+Inf\"} " << h.count << "\n"
       << name << "_sum " << render_double(h.sum) << "\n"
       << name << "_count " << h.count << "\n";
  }
  return os.str();
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    os << (i ? "," : "") << "\"" << counters[i].name
       << "\":" << counters[i].value;
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    os << (i ? "," : "") << "\"" << gauges[i].name << "\":" << gauges[i].value;
  }
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    os << (i ? "," : "") << "\"" << h.name << "\":{\"bounds\":[";
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      os << (b ? "," : "") << render_double(h.bounds[b]);
    }
    os << "],\"counts\":[";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      os << (b ? "," : "") << h.counts[b];
    }
    os << "],\"count\":" << h.count << ",\"sum\":" << render_double(h.sum)
       << "}";
  }
  os << "}}";
  return os.str();
}

}  // namespace muffin::obs
