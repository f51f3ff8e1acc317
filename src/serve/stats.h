// Exact sample percentiles, for benches and tests that hold every
// sample. Serving-path latency lives in the obs registry's histograms
// (obs/metrics.h), whose percentiles track this function within 1%.
#pragma once

#include <vector>

namespace muffin::serve {

/// Nearest-rank percentile of an unsorted sample set, q in [0, 100].
[[nodiscard]] double percentile(std::vector<double> samples, double q);

}  // namespace muffin::serve
