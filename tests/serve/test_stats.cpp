#include "serve/stats.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"

namespace muffin::serve {
namespace {

TEST(Percentile, NearestRankOnKnownSamples) {
  const std::vector<double> samples = {10, 20, 30, 40, 50, 60, 70, 80, 90,
                                       100};
  EXPECT_DOUBLE_EQ(percentile(samples, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 95.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile({42.0}, 99.0), 42.0);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW((void)percentile({}, 50.0), Error);
  EXPECT_THROW((void)percentile({1.0}, -1.0), Error);
  EXPECT_THROW((void)percentile({1.0}, 101.0), Error);
}

}  // namespace
}  // namespace muffin::serve
