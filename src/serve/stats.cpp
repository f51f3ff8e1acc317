#include "serve/stats.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace muffin::serve {

double percentile(std::vector<double> samples, double q) {
  MUFFIN_REQUIRE(!samples.empty(), "percentile of an empty sample set");
  MUFFIN_REQUIRE(q >= 0.0 && q <= 100.0, "percentile q must be in [0, 100]");
  // Nearest-rank: smallest sample with at least q% of the mass at or below.
  const std::size_t rank = q <= 0.0
                               ? 0
                               : static_cast<std::size_t>(std::ceil(
                                     q / 100.0 *
                                     static_cast<double>(samples.size()))) -
                                     1;
  const std::size_t index = std::min(rank, samples.size() - 1);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

}  // namespace muffin::serve
