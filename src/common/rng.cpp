#include "common/rng.h"

#include <cmath>

#include "common/error.h"
#include "common/hash.h"

namespace muffin {

namespace {

/// std::generate_canonical<double, 53> over a 64-bit engine: one draw,
/// rounded to double and scaled by 2^-64; a draw that rounds up to 1.0
/// becomes the largest double below 1. The draw converts as two exact
/// 32-bit halves joined by one rounding add, which rounds the exact
/// value once, as a direct u64 -> double conversion does; at baseline
/// x86-64 GCC compiles the direct one to a jump on the draw's top bit.
double canonical(Mt19937_64& engine) {
  const std::uint64_t bits = engine();
  const auto high = static_cast<double>(static_cast<std::int64_t>(bits >> 32));
  const auto low =
      static_cast<double>(static_cast<std::int64_t>(bits & 0xffffffffU));
  const double u = (high * 0x1.0p32 + low) * 0x1.0p-64;
  return u < 1.0 ? u : 0x1.fffffffffffffp-1;
}

/// One Marsaglia polar step, as std::normal_distribution takes it: draw
/// x then y uniform in (-1, 1) until 0 < x^2 + y^2 <= 1, return y scaled.
/// The x-scaled spare is never computed.
double polar_normal(Mt19937_64& engine) {
  double x = 0.0;
  double y = 0.0;
  double r2 = 0.0;
  do {
    x = 2.0 * canonical(engine) - 1.0;
    y = 2.0 * canonical(engine) - 1.0;
    r2 = x * x + y * y;
  } while (r2 > 1.0 || r2 == 0.0);
  return y * std::sqrt(-2.0 * std::log(r2) / r2);
}

}  // namespace

Mt19937_64::Mt19937_64(std::uint64_t seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateWords; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::refill() {
  constexpr std::size_t kShift = 156;  // the recurrence's middle word
  constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  constexpr std::uint64_t kLower = ~kUpper;
  constexpr std::uint64_t kMatrix = 0xb5026f5aa96619e9ULL;
  const auto twist = [](std::uint64_t word, std::uint64_t next,
                        std::uint64_t far) {
    const std::uint64_t y = (word & kUpper) | (next & kLower);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
  };
  std::size_t k = 0;
  for (; k < kStateWords - kShift; ++k) {
    state_[k] = twist(state_[k], state_[k + 1], state_[k + kShift]);
  }
  for (; k < kStateWords - 1; ++k) {
    state_[k] =
        twist(state_[k], state_[k + 1], state_[k + kShift - kStateWords]);
  }
  state_[k] = twist(state_[k], state_[0], state_[kShift - 1]);
  next_ = 0;
}

std::uint64_t stream_purpose_prefix(std::string_view purpose) {
  return fnv1a64_continue(fnv1a64(purpose), ":");
}

std::uint64_t stream_name_hash(std::string_view purpose, std::uint64_t uid) {
  return stream_name_hash(stream_purpose_prefix(purpose),
                          UidDigits(uid).view());
}

SplitRng SplitRng::fork(std::string_view name) const {
  return SplitRng(fork_seed(seed_, fnv1a64(name)));
}

double SplitRng::uniform() { return canonical(engine_); }

double SplitRng::uniform(double lo, double hi) {
  MUFFIN_REQUIRE(lo <= hi, "uniform(lo, hi) requires lo <= hi");
  return canonical(engine_) * (hi - lo) + lo;
}

std::size_t SplitRng::index(std::size_t n) {
  MUFFIN_REQUIRE(n > 0, "index(n) requires n > 0");
  using u128 = unsigned __int128;
  u128 product = static_cast<u128>(engine_()) * n;
  std::uint64_t low = static_cast<std::uint64_t>(product);
  if (low < n) {
    // Reject the low products that would over-represent some outputs.
    const std::uint64_t threshold = (0 - static_cast<std::uint64_t>(n)) % n;
    while (low < threshold) {
      product = static_cast<u128>(engine_()) * n;
      low = static_cast<std::uint64_t>(product);
    }
  }
  return static_cast<std::size_t>(product >> 64);
}

// `+ 0.0` is the mean std::normal_distribution adds: it turns a -0.0 draw
// (a negative y when x^2 + y^2 rounds to exactly 1) into +0.0.
double SplitRng::normal() { return polar_normal(engine_) + 0.0; }

double SplitRng::normal(double mean, double stddev) {
  MUFFIN_REQUIRE(stddev >= 0.0, "normal stddev must be non-negative");
  if (stddev == 0.0) return mean;
  return polar_normal(engine_) * stddev + mean;
}

bool SplitRng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return canonical(engine_) < p;
}

std::size_t SplitRng::categorical(const std::vector<double>& weights) {
  MUFFIN_REQUIRE(!weights.empty(), "categorical requires weights");
  double total = 0.0;
  for (const double w : weights) {
    MUFFIN_REQUIRE(w >= 0.0, "categorical weights must be non-negative");
    total += w;
  }
  MUFFIN_REQUIRE(total > 0.0, "categorical requires a positive weight");
  double point = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    point -= weights[i];
    if (point <= 0.0) return i;
  }
  return weights.size() - 1;  // numeric edge: landed past the last bucket
}

std::vector<std::size_t> SplitRng::sample_without_replacement(std::size_t n,
                                                              std::size_t k) {
  MUFFIN_REQUIRE(k <= n, "cannot sample more items than the population");
  std::vector<std::size_t> pool(n);
  for (std::size_t i = 0; i < n; ++i) pool[i] = i;
  shuffle(pool);
  pool.resize(k);
  return pool;
}

}  // namespace muffin
