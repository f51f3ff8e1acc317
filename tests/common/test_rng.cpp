#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>
#include <set>
#include <string>
#include <type_traits>

#include "common/error.h"
#include "common/stats.h"

namespace muffin {
namespace {

TEST(SplitRng, SameSeedSameStream) {
  SplitRng a(42);
  SplitRng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(SplitRng, DifferentSeedsDiffer) {
  SplitRng a(1);
  SplitRng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(SplitRng, ForkIsDeterministic) {
  SplitRng master(7);
  SplitRng a = master.fork("dataset");
  SplitRng b = SplitRng(7).fork("dataset");
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(SplitRng, ForkIndependentOfDrawOrder) {
  SplitRng master(7);
  master.uniform();  // consuming draws must not change forks
  SplitRng a = master.fork("x");
  SplitRng b = SplitRng(7).fork("x");
  EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(SplitRng, ForksWithDifferentNamesDecorrelated) {
  SplitRng master(7);
  SplitRng a = master.fork("alpha");
  SplitRng b = master.fork("beta");
  std::vector<double> xs(500), ys(500);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = a.uniform();
    ys[i] = b.uniform();
  }
  EXPECT_LT(std::abs(pearson(xs, ys)), 0.12);
}

TEST(SplitRng, UniformInRange) {
  SplitRng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(SplitRng, UniformRejectsInvertedRange) {
  SplitRng rng(3);
  EXPECT_THROW(rng.uniform(1.0, 0.0), Error);
}

TEST(SplitRng, IndexCoversRange) {
  SplitRng rng(5);
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::size_t v = rng.index(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(SplitRng, IndexRejectsZero) {
  SplitRng rng(5);
  EXPECT_THROW(rng.index(0), Error);
}

TEST(SplitRng, NormalMoments) {
  SplitRng rng(11);
  std::vector<double> draws(20000);
  for (double& d : draws) d = rng.normal();
  EXPECT_NEAR(mean(draws), 0.0, 0.03);
  EXPECT_NEAR(stddev(draws), 1.0, 0.03);
}

TEST(SplitRng, NormalWithParameters) {
  SplitRng rng(11);
  std::vector<double> draws(20000);
  for (double& d : draws) d = rng.normal(3.0, 0.5);
  EXPECT_NEAR(mean(draws), 3.0, 0.03);
  EXPECT_NEAR(stddev(draws), 0.5, 0.03);
}

TEST(SplitRng, NormalZeroStddevIsMean) {
  SplitRng rng(11);
  EXPECT_DOUBLE_EQ(rng.normal(2.5, 0.0), 2.5);
}

TEST(SplitRng, NormalRejectsNegativeStddev) {
  SplitRng rng(11);
  EXPECT_THROW(rng.normal(0.0, -1.0), Error);
}

TEST(SplitRng, BernoulliEdges) {
  SplitRng rng(13);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(SplitRng, BernoulliFrequency) {
  SplitRng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(SplitRng, CategoricalFollowsWeights) {
  SplitRng rng(17);
  const std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[rng.categorical(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.02);
}

TEST(SplitRng, CategoricalRejectsBadInput) {
  SplitRng rng(17);
  EXPECT_THROW(rng.categorical({}), Error);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), Error);
  EXPECT_THROW(rng.categorical({1.0, -1.0}), Error);
}

TEST(SplitRng, ShufflePreservesElements) {
  SplitRng rng(19);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = items;
  rng.shuffle(items);
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, original);
}

TEST(SplitRng, SampleWithoutReplacementDistinct) {
  SplitRng rng(23);
  const auto sample = rng.sample_without_replacement(10, 6);
  EXPECT_EQ(sample.size(), 6u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 6u);
  for (const std::size_t v : sample) EXPECT_LT(v, 10u);
}

TEST(SplitRng, SampleWithoutReplacementFull) {
  SplitRng rng(23);
  const auto sample = rng.sample_without_replacement(5, 5);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(SplitRng, SampleWithoutReplacementRejectsOversample) {
  SplitRng rng(23);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), Error);
}

// ---------------------------------------------------------------------
// Mt19937_64 and SplitRng's written-out draws, against <random>.
// ---------------------------------------------------------------------

std::vector<std::uint64_t> engine_seeds() {
  return {0, 1, 5489, ~std::uint64_t{0},
          SplitRng(2019).fork("features").seed()};
}

TEST(Mt19937_64, EqualsStdEngineOverAMillionDrawsPerSeed) {
  // A million draws cross the 312-word refill boundary 3,205 times.
  for (const std::uint64_t seed : engine_seeds()) {
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    for (std::size_t i = 0; i < 1'000'000; ++i) {
      ASSERT_EQ(engine(), reference()) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(Mt19937_64, GoldenValuesOfTheStandard) {
  // [rand.predef]: the 10000th draw of a default-seeded mt19937_64.
  Mt19937_64 engine(5489);
  EXPECT_EQ(engine(), 14514284786278117030ULL);
  for (int i = 2; i < 10000; ++i) (void)engine();
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

/// A draw's bits: a double's representation, an integer's value.
template <typename T>
std::uint64_t bits(T value) {
  if constexpr (std::is_floating_point_v<T>) {
    return std::bit_cast<std::uint64_t>(value);
  } else {
    return static_cast<std::uint64_t>(value);
  }
}

/// Runs `draw(rng, reference)` 20,000 times per seed on a SplitRng and a
/// std::mt19937_64 seeded alike; `draw` returns the pair of results.
template <typename Draw>
void expect_draws_match(Draw draw) {
  for (const std::uint64_t seed : engine_seeds()) {
    SplitRng rng(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 20000; ++i) {
      const auto [ours, theirs] = draw(rng, reference);
      ASSERT_EQ(bits(ours), bits(theirs)) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(SplitRngDraws, UniformEqualsStdUniformReal) {
  expect_draws_match([](SplitRng& rng, std::mt19937_64& reference) {
    return std::pair(rng.uniform(),
                     std::uniform_real_distribution<double>(0.0, 1.0)(
                         reference));
  });
  expect_draws_match([](SplitRng& rng, std::mt19937_64& reference) {
    return std::pair(rng.uniform(-3.5, 12.25),
                     std::uniform_real_distribution<double>(-3.5, 12.25)(
                         reference));
  });
}

TEST(SplitRngDraws, IndexEqualsStdUniformInt) {
  // 2^63 + 1 rejects about half its draws, so the rejection loop runs.
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{1} << 32,
        (std::size_t{1} << 63) + 1}) {
    expect_draws_match([n](SplitRng& rng, std::mt19937_64& reference) {
      return std::pair(
          rng.index(n),
          std::uniform_int_distribution<std::size_t>(0, n - 1)(reference));
    });
  }
}

TEST(SplitRngDraws, NormalEqualsAFreshStdNormalPerDraw) {
  expect_draws_match([](SplitRng& rng, std::mt19937_64& reference) {
    return std::pair(rng.normal(),
                     std::normal_distribution<double>(0.0, 1.0)(reference));
  });
  expect_draws_match([](SplitRng& rng, std::mt19937_64& reference) {
    return std::pair(rng.normal(-1.5, 2.75),
                     std::normal_distribution<double>(-1.5, 2.75)(reference));
  });
}

TEST(SplitRngDraws, BernoulliEqualsStdBernoulli) {
  for (const double p : {0.3, 1e-9, 0.999}) {
    expect_draws_match([p](SplitRng& rng, std::mt19937_64& reference) {
      return std::pair(rng.bernoulli(p),
                       std::bernoulli_distribution(p)(reference));
    });
  }
}

TEST(SplitRngDraws, GoldenFirstValues) {
  // Fixed bits, so a toolchain whose libm log or sqrt rounds differently
  // shows up here before it re-bases every dataset.
  EXPECT_EQ(SplitRng(2019).uniform(), 0x1.5dea1fd4d75efp-1);
  EXPECT_EQ(SplitRng(2019).uniform(-3.0, 5.0), 0x1.3bd43fa9aebdep+1);
  EXPECT_EQ(SplitRng(2019).normal(), -0x1.2483a464d064p-2);
  EXPECT_EQ(SplitRng(2019).normal(3.0, 0.5), 0x1.6db7c5b9b2f9cp+1);
  EXPECT_EQ(SplitRng(2019).index(1000), 683u);
  EXPECT_EQ(SplitRng(2019).index((std::size_t{1} << 63) + 1),
            7009009104243795583u);
  SplitRng rng(2019);
  double sum = 0.0;
  for (int i = 0; i < 1000; ++i) sum += rng.normal();
  EXPECT_EQ(sum, -0x1.20c94de718e4fp+4);
}

TEST(Fnv1a64, KnownValuesStable) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
  EXPECT_EQ(fnv1a64("muffin"), fnv1a64("muffin"));
}

TEST(Fnv1a64, ContinueComposesWithConcatenation) {
  EXPECT_EQ(fnv1a64_continue(fnv1a64("eps"), ":1234"), fnv1a64("eps:1234"));
  EXPECT_EQ(fnv1a64_continue(fnv1a64(""), "muffin"), fnv1a64("muffin"));
}

TEST(Fnv1a64, ContinueManyMatchesIndividualChains) {
  std::uint64_t hashes[6] = {fnv1a64("eps:"),       fnv1a64("fam:"),
                             fnv1a64("logits:"),    fnv1a64("confusion:"),
                             fnv1a64("calibration:"), fnv1a64("runner:")};
  const std::uint64_t before[6] = {hashes[0], hashes[1], hashes[2],
                                   hashes[3], hashes[4], hashes[5]};
  fnv1a64_continue_many(hashes, "90210");
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(hashes[i], fnv1a64_continue(before[i], "90210")) << i;
  }
}

TEST(ForkSeed, MatchesSplitRngFork) {
  const SplitRng base(7331);
  EXPECT_EQ(base.fork("controller").seed(),
            fork_seed(7331, fnv1a64("controller")));
}

TEST(UidDigitsRender, MatchesToString) {
  for (const std::uint64_t uid :
       {std::uint64_t{0}, std::uint64_t{7}, std::uint64_t{10},
        std::uint64_t{90210}, std::uint64_t{18446744073709551615ULL}}) {
    EXPECT_EQ(std::string(UidDigits(uid).view()), std::to_string(uid));
  }
}

TEST(StreamNameHash, PrefixOverloadMatchesCanonical) {
  for (const std::uint64_t uid : {std::uint64_t{0}, std::uint64_t{42},
                                  std::uint64_t{123456789}}) {
    EXPECT_EQ(stream_name_hash(stream_purpose_prefix("eps"),
                               UidDigits(uid).view()),
              stream_name_hash("eps", uid));
    EXPECT_EQ(stream_name_hash("eps", uid),
              fnv1a64("eps:" + std::to_string(uid)));
  }
}

TEST(CounterRngDraws, DeterministicPerSeed) {
  CounterRng a(99);
  CounterRng b(99);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.next_bits(), b.next_bits());
  CounterRng c(100);
  int equal = 0;
  CounterRng d(99);
  for (int i = 0; i < 64; ++i) {
    if (c.next_bits() == d.next_bits()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(CounterRngDraws, UniformIsOpenUnitInterval) {
  CounterRng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GT(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  // counter_unit pins the extremes strictly inside (0, 1).
  EXPECT_GT(counter_unit(0), 0.0);
  EXPECT_LT(counter_unit(~std::uint64_t{0}), 1.0);
}

TEST(CounterRngDraws, NormalIsQuantileOfUniform) {
  // One draw per normal — the stream stays draw-countable, unlike
  // std::normal_distribution.
  CounterRng a(17);
  CounterRng b(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.normal(), normal_quantile(b.uniform()));
  }
  CounterRng c(17);
  CounterRng d(17);
  EXPECT_EQ(c.normal(2.0, 3.0), 2.0 + 3.0 * d.normal());
}

TEST(CounterRngDraws, BernoulliAlwaysConsumesOneDraw) {
  for (const double p : {-1.0, 0.0, 0.5, 1.0, 2.0}) {
    CounterRng rng(3);
    (void)rng.bernoulli(p);
    CounterRng reference(3);
    (void)reference.uniform();
    EXPECT_EQ(rng.state(), reference.state()) << "p=" << p;
  }
  CounterRng rng(3);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(CounterRng(3).bernoulli(1.0));
}

TEST(CounterRngDraws, IndexInRangeAndRoughlyUniform) {
  CounterRng rng(11);
  std::vector<int> counts(8, 0);
  const int n = 16000;
  for (int i = 0; i < n; ++i) {
    const std::size_t k = rng.index(8);
    ASSERT_LT(k, 8u);
    ++counts[k];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c / static_cast<double>(n), 0.125, 0.02);
  }
}

TEST(CounterRngDraws, NormalMoments) {
  CounterRng rng(2024);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

class CategoricalSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CategoricalSweep, UniformWeightsAreUniform) {
  const std::size_t k = GetParam();
  SplitRng rng(100 + k);
  const std::vector<double> weights(k, 1.0);
  std::vector<int> counts(k, 0);
  const int n = 12000;
  for (int i = 0; i < n; ++i) ++counts[rng.categorical(weights)];
  for (const int c : counts) {
    EXPECT_NEAR(c / static_cast<double>(n), 1.0 / static_cast<double>(k),
                0.03);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CategoricalSweep,
                         ::testing::Values(2, 3, 5, 8, 13));

}  // namespace
}  // namespace muffin
