// Deterministic random number generation.
//
// Every stochastic component of the library draws from a SplitRng seeded
// explicitly by the caller; there is no global random state (I.2). SplitRng
// supports *named substreams* (`fork`), so independent components (dataset
// generation, model calibration, controller sampling, head initialization)
// get decorrelated, reproducible streams from one master seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/hash.h"

namespace muffin {

[[nodiscard]] double normal_quantile(double u);  // common/stats.h

/// std::mt19937_64, bit for bit: the same seeding, twist and tempering
/// (Matsumoto & Nishimura), so Mt19937_64(s) and std::mt19937_64(s) give
/// the same stream for every seed. The twist is written branch-free,
/// `(0 - (y & 1)) & a` instead of libstdc++'s `(y & 1) ? a : 0`: GCC 12
/// compiles the library's form to a conditional jump on a random bit at
/// baseline x86-64, and the mispredicts make a draw cost 7.8 ns instead
/// of 2.2 ns (Intel Xeon, 4 vCPUs).
class Mt19937_64 {
 public:
  explicit Mt19937_64(std::uint64_t seed);

  /// Next 64-bit draw.
  std::uint64_t operator()() {
    if (next_ == kStateWords) refill();
    std::uint64_t z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kStateWords = 312;

  /// Twist all kStateWords words at once (the engine's _M_gen_rand).
  void refill();

  std::uint64_t state_[kStateWords];
  std::size_t next_ = kStateWords;  ///< kStateWords: refill before a draw
};

/// Deterministic RNG over Mt19937_64 with named substreams.
///
/// Each draw is written out as libstdc++ 12 draws it from std::mt19937_64
/// through a fresh <random> distribution object, so every dataset, proxy
/// subsample and initialization keeps its bits, and no longer depends on
/// the standard library's distribution code (only on libm's log and sqrt):
///  - uniform() is generate_canonical<double, 53>: one draw times 2^-64,
///    pulled below 1 when it rounds up to 1; uniform(lo, hi) is
///    uniform() * (hi - lo) + lo;
///  - index(n) is Lemire's nearly-divisionless method (libstdc++'s _S_nd);
///  - normal() is one Marsaglia polar step; its spare draw is discarded,
///    as a per-call std::normal_distribution discards it;
///  - bernoulli(p) is uniform() < p.
class SplitRng {
 public:
  explicit SplitRng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// Derive an independent, reproducible substream. The same (seed, name)
  /// pair always yields the same stream, regardless of draw order elsewhere.
  [[nodiscard]] SplitRng fork(std::string_view name) const;

  /// Uniform real in [0, 1).
  double uniform();
  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);
  /// Standard normal draw.
  double normal();
  /// Normal draw with the given mean and standard deviation.
  double normal(double mean, double stddev);
  /// Bernoulli draw with success probability p (clamped to [0, 1]).
  bool bernoulli(double p);
  /// Sample an index from an unnormalized non-negative weight vector.
  /// Requires at least one strictly positive weight.
  std::size_t categorical(const std::vector<double>& weights);
  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[index(i)]);
    }
  }
  /// Sample k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  Mt19937_64 engine_;
  std::uint64_t seed_;
};

/// Map 64 random bits to a uniform double in the open interval (0, 1):
/// the top 53 bits centered on half-steps of the 2^-53 grid. Zero bits
/// give 2^-54 > 0; at the top, (2^53 - 1) + 0.5 ties-to-even up to 2^53,
/// so the all-ones draw would land exactly on 1.0 — it saturates to the
/// largest double below 1 instead, keeping the interval genuinely open
/// for quantile transforms. The clamp compiles to a branch-free min, so
/// the scalar and planar sweeps stay bit-identical.
[[nodiscard]] constexpr double counter_unit(std::uint64_t bits) {
  const double u = (static_cast<double>(bits >> 11) + 0.5) * 0x1.0p-53;
  return u < 1.0 ? u : 0x1.fffffffffffffp-1;
}

/// Counter-derived deterministic sampler over the splitmix64 stream
/// (common/hash.h).
///
/// SplitRng costs microseconds to *seed* (Mt19937_64 state expansion),
/// which is fine for components that seed once and draw thousands of
/// times but fatal for paths that derive several fresh substreams per
/// record — the calibrated scoring kernel derives six. CounterRng
/// construction is free, each draw is a handful of integer ops, and draw
/// i of a stream is a pure function of (stream_seed, i), so batch kernels
/// can fill whole per-stream arrays in one vectorizable pass
/// (tensor/ops.h normal_planar_into) that stays bit-identical to this
/// scalar API: both sides run the same splitmix64 step, the same
/// counter_unit mapping and the same normal_quantile evaluation.
///
/// Draw semantics (deliberately simpler than SplitRng, and part of the
/// reproducibility contract):
///  - uniform() is open-interval (0, 1) via counter_unit.
///  - normal() is the inverse-CDF transform of ONE uniform (SplitRng's
///    polar step consumes a random number of draws; here the stream
///    position is always draw-countable).
///  - bernoulli(p) always consumes exactly one draw, even for p <= 0 or
///    p >= 1 (SplitRng short-circuits those) — batch passes stay
///    draw-aligned without branching on p.
///  - index(n) maps one 64-bit draw by fixed-point scaling (bits * n)
///    >> 64; the O(n / 2^64) bias is irrelevant for simulation use.
class CounterRng {
 public:
  explicit CounterRng(std::uint64_t stream_seed) : state_(stream_seed) {}

  /// Next raw 64-bit draw (advances the stream).
  std::uint64_t next_bits() { return splitmix64_next(state_); }
  /// Uniform real in the open interval (0, 1).
  double uniform() { return counter_unit(next_bits()); }
  /// Standard normal draw: normal_quantile(uniform()).
  double normal() { return normal_quantile(uniform()); }
  /// mean + stddev * normal(); always consumes one draw.
  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }
  /// Bernoulli draw with success probability p; always one draw.
  bool bernoulli(double p) { return uniform() < p; }
  /// Uniform integer in [0, n). Requires n > 0; always one draw.
  std::size_t index(std::size_t n) {
    using u128 = unsigned __int128;
    return static_cast<std::size_t>(
        (static_cast<u128>(next_bits()) * static_cast<u128>(n)) >> 64);
  }

  /// Current stream state (the seed of the remaining draws).
  [[nodiscard]] std::uint64_t state() const { return state_; }

 private:
  std::uint64_t state_;
};

/// Continue an FNV-1a hash over more bytes; fnv1a64(a + b) ==
/// fnv1a64_continue(fnv1a64(a), b). Lets hot paths hash composite
/// substream names without building the concatenated string.
[[nodiscard]] constexpr std::uint64_t fnv1a64_continue(std::uint64_t hash,
                                                       std::string_view text) {
  for (const char c : text) {
    hash ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Stable 64-bit FNV-1a hash (used for substream derivation and tests).
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view text) {
  return fnv1a64_continue(0xcbf29ce484222325ULL, text);
}

/// Continue `Count` FNV-1a hashes over the same bytes in lock-step. Each
/// hash chain is sequential (a byte's multiply depends on the previous
/// byte's), but the chains are mutually independent — interleaving them
/// keeps the multiplier pipeline full, so deriving one record's several
/// purpose streams costs barely more than deriving one.
template <std::size_t Count>
constexpr void fnv1a64_continue_many(std::uint64_t (&hashes)[Count],
                                     std::string_view text) {
  for (const char c : text) {
    const std::uint64_t byte =
        static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    for (std::size_t i = 0; i < Count; ++i) {
      hashes[i] = (hashes[i] ^ byte) * 0x100000001b3ULL;
    }
  }
}

/// The substream seed SplitRng(seed).fork(name) derives, given
/// name_hash == fnv1a64(name). fork() is defined in terms of this; hot
/// paths use it to skip constructing the intermediate engine (Mt19937_64
/// seeding is the expensive part of a SplitRng). One splitmix64 step of
/// the xor keeps adjacent names decorrelated; the arithmetic reproduces
/// the historical inline version bit for bit, so forked streams are
/// stable across refactors.
[[nodiscard]] constexpr std::uint64_t fork_seed(std::uint64_t seed,
                                                std::uint64_t name_hash) {
  std::uint64_t z = seed ^ name_hash;
  return splitmix64_next(z);
}

/// fnv1a64(purpose + ":" + std::to_string(uid)) without building the
/// string: the uid is rendered into a stack buffer and hashed
/// incrementally. The canonical substream name for per-record streams —
/// fork_seed(master, stream_name_hash(purpose, uid)) is the stream seed.
/// Batch kernels hoist the purpose prefix: hashing the digits onto a
/// cached fnv1a64_continue(fnv1a64(purpose), ":") yields the same value.
[[nodiscard]] std::uint64_t stream_name_hash(std::string_view purpose,
                                             std::uint64_t uid);

/// The hoisted purpose prefix: fnv1a64(purpose + ":"). Batch kernels
/// compute this once per purpose (or once per model) instead of once per
/// record.
[[nodiscard]] std::uint64_t stream_purpose_prefix(std::string_view purpose);

/// The decimal rendering of a uid on the stack, for deriving several
/// purpose streams of one record with a single digit pass: render once,
/// then stream_name_hash(prefix, digits.view()) per purpose.
class UidDigits {
 public:
  explicit UidDigits(std::uint64_t uid) {
    char* cursor = buffer_ + sizeof(buffer_);
    do {
      *--cursor = static_cast<char>('0' + uid % 10);
      uid /= 10;
    } while (uid != 0);
    begin_ = cursor;
  }
  [[nodiscard]] std::string_view view() const {
    return {begin_, static_cast<std::size_t>(buffer_ + sizeof(buffer_) -
                                             begin_)};
  }

 private:
  char buffer_[20];  ///< max std::uint64_t has 20 decimal digits
  const char* begin_;
};

/// Completes a stream name hash from a hoisted purpose prefix and
/// pre-rendered uid digits: stream_name_hash(purpose, uid) ==
/// stream_name_hash(stream_purpose_prefix(purpose), UidDigits(uid).view()).
[[nodiscard]] inline std::uint64_t stream_name_hash(
    std::uint64_t purpose_prefix, std::string_view uid_digits) {
  return fnv1a64_continue(purpose_prefix, uid_digits);
}

}  // namespace muffin
