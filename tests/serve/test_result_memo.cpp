// serve::ResultMemo against a reference LRU.
//
// The oracle is the shape the engine's memo had before it went flat: a
// std::list in recency order plus a std::unordered_map from uid to list
// position, each reply held as a C x 1 tensor::QuantMatrix and its bytes
// counted as that matrix's footprint.
// Seeded random schedules of lookups, stores of new uids, re-stores of
// live uids under older, equal and newer versions, and version bumps run
// against both. After every operation the two must agree on hit or miss,
// the eviction victim, size() and bytes(), and every decoded reply bit for
// bit. A failure names its seed, capacity, class count and quant mode;
// the schedule replays from them.
#include "serve/result_memo.h"

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <list>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/hash.h"
#include "tensor/quant.h"

namespace muffin::serve {
namespace {

using tensor::QuantMode;

constexpr QuantMode kModes[] = {QuantMode::Off, QuantMode::Bf16,
                                QuantMode::Int8};

/// A reply as the reference holds it: a C x 1 matrix, one int8 scale.
tensor::QuantMatrix encode_reply(QuantMode mode,
                                 const std::vector<double>& scores) {
  return tensor::QuantMatrix(mode, scores.size(), 1, scores.data(),
                             /*row_stride=*/1, /*col_stride=*/1);
}

std::vector<double> decode_reply(const tensor::QuantMatrix& reply) {
  std::vector<double> decoded(reply.rows());
  reply.decode(decoded);
  return decoded;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Reference exact LRU with the memo's version rules, most recent first.
class ReferenceLru {
 public:
  struct Entry {
    std::uint64_t version = 0;
    std::size_t predicted = 0;
    bool consensus = false;
    tensor::QuantMatrix scores;
  };
  using Order = std::list<std::pair<std::uint64_t, Entry>>;

  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  const Entry* lookup(std::uint64_t uid, std::uint64_t version) {
    const auto it = index_.find(uid);
    if (it == index_.end() || it->second->second.version != version) {
      return nullptr;
    }
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  std::optional<std::uint64_t> store(std::uint64_t uid, Entry entry) {
    if (capacity_ == 0) return std::nullopt;
    const auto it = index_.find(uid);
    if (it != index_.end()) {
      Entry& existing = it->second->second;
      if (existing.version < entry.version) {
        bytes_ -= existing.scores.footprint_bytes();
        bytes_ += entry.scores.footprint_bytes();
        existing = std::move(entry);
      }
      order_.splice(order_.begin(), order_, it->second);
      return std::nullopt;
    }
    bytes_ += entry.scores.footprint_bytes();
    order_.emplace_front(uid, std::move(entry));
    index_.emplace(uid, order_.begin());
    if (order_.size() <= capacity_) return std::nullopt;
    const std::uint64_t victim = order_.back().first;
    bytes_ -= order_.back().second.scores.footprint_bytes();
    index_.erase(victim);
    order_.pop_back();
    return victim;
  }

  [[nodiscard]] const Order& order() const { return order_; }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }

 private:
  std::size_t capacity_;
  std::size_t bytes_ = 0;
  Order order_;
  std::unordered_map<std::uint64_t, Order::iterator> index_;
};

/// One seeded schedule against one memo shape.
class Schedule {
 public:
  Schedule(std::uint64_t seed, std::size_t capacity, std::size_t classes,
           QuantMode mode)
      : rng_(seed),
        classes_(classes),
        mode_(mode),
        memo_(capacity, classes, mode),
        reference_(capacity),
        encoded_(memo_.stride() / sizeof(std::uint64_t)) {
    // Twice the capacity plus a few, so stores keep evicting.
    for (std::size_t i = 0; i < 2 * capacity + 3; ++i) {
      universe_.push_back(next());
    }
  }

  void run(std::size_t operations) {
    for (std::size_t op = 0; op < operations; ++op) {
      SCOPED_TRACE("operation " + std::to_string(op));
      const std::uint64_t roll = next() % 100;
      if (roll < 35) {
        lookup(pick_uid(), version_);
      } else if (roll < 65) {
        store(pick_uid(), version_);
      } else if (roll < 80 && !reference_.order().empty()) {
        // Re-store a live uid under an older, equal or newer version.
        store(pick_live_uid(), 1 + next() % version_);
      } else if (roll < 95 && !reference_.order().empty()) {
        // A batch pinned before a swap looks up under an older version.
        lookup(pick_live_uid(), 1 + next() % version_);
      } else {
        ++version_;
      }
      if (testing::Test::HasFatalFailure()) return;
      ASSERT_EQ(memo_.size(), reference_.order().size());
      ASSERT_EQ(memo_.bytes(), reference_.bytes());
      if (op % 64 == 0) expect_same_contents();
      if (testing::Test::HasFatalFailure()) return;
    }
    expect_same_contents();
  }

 private:
  std::uint64_t next() { return splitmix64_next(rng_); }

  std::uint64_t pick_uid() { return universe_[next() % universe_.size()]; }

  std::uint64_t pick_live_uid() {
    const ReferenceLru::Order& order = reference_.order();
    return std::next(order.begin(), static_cast<std::ptrdiff_t>(
                                         next() % order.size()))
        ->first;
  }

  /// Scores with the shapes that matter to the encodings: ordinary
  /// probabilities, values small enough to round away, and all zeros
  /// (int8's scale-1 rule).
  std::vector<double> random_scores() {
    std::vector<double> scores(classes_, 0.0);
    const std::uint64_t shape = next() % 16;
    if (shape == 0) return scores;
    for (double& s : scores) {
      s = static_cast<double>(next() >> 11) * 0x1.0p-53;
      if (shape == 1) s *= 1e-6;
    }
    return scores;
  }

  void lookup(std::uint64_t uid, std::uint64_t version) {
    std::vector<double> decoded(classes_, -1.0);
    const std::optional<ResultMemo::Hit> hit =
        memo_.lookup(uid, version, decoded);
    const ReferenceLru::Entry* expected = reference_.lookup(uid, version);
    ASSERT_EQ(hit.has_value(), expected != nullptr)
        << "uid " << uid << " version " << version;
    if (expected == nullptr) return;
    EXPECT_EQ(hit->predicted, expected->predicted);
    EXPECT_EQ(hit->consensus, expected->consensus);
    ASSERT_TRUE(same_bits(decoded, decode_reply(expected->scores)))
        << "uid " << uid;
  }

  void store(std::uint64_t uid, std::uint64_t version) {
    const std::vector<double> scores = random_scores();
    std::vector<double> canonical = scores;
    const std::span<std::byte> encoded = std::as_writable_bytes(
        std::span(encoded_)).first(memo_.reply_bytes());
    memo_.canonicalize(canonical, encoded);
    ReferenceLru::Entry entry{version, next() % classes_, next() % 2 == 0,
                              encode_reply(mode_, scores)};
    ASSERT_TRUE(same_bits(canonical, decode_reply(entry.scores)));
    const std::optional<std::uint64_t> victim = memo_.store(
        uid, version, entry.predicted, entry.consensus, encoded);
    ASSERT_EQ(victim, reference_.store(uid, std::move(entry)))
        << "uid " << uid << " version " << version;
    ASSERT_EQ(memo_.contains(uid), memo_.capacity() > 0) << "uid " << uid;
  }

  /// Every reference entry is memoized (with sizes equal, the uid sets
  /// are equal), without disturbing recency.
  void expect_same_contents() {
    for (const auto& [uid, entry] : reference_.order()) {
      ASSERT_TRUE(memo_.contains(uid)) << "uid " << uid;
    }
  }

  std::uint64_t rng_;
  std::size_t classes_;
  QuantMode mode_;
  ResultMemo memo_;
  ReferenceLru reference_;
  std::vector<std::uint64_t> encoded_;  ///< 8-byte aligned scratch reply
  std::vector<std::uint64_t> universe_;
  std::uint64_t version_ = 1;
};

TEST(ResultMemo, MatchesReferenceLruOnSeededSchedules) {
  constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4};
  for (const std::size_t capacity : {1, 2, 7, 64, 1000}) {
    for (const std::size_t classes : {8, 9}) {
      for (const QuantMode mode : kModes) {
        for (const std::uint64_t seed : kSeeds) {
          SCOPED_TRACE("seed " + std::to_string(seed) + ", capacity " +
                       std::to_string(capacity) + ", classes " +
                       std::to_string(classes) + ", mode " +
                       std::string(tensor::quant_mode_name(mode)));
          Schedule(seed, capacity, classes, mode).run(2000 + 4 * capacity);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(ResultMemo, ReplyLayoutKeepsEveryInt8ScaleAligned) {
  // An int8 reply is its 8-byte scale plus C bytes; at C = 9 the next
  // slot's scale would sit at an odd offset unless the stride rounds up.
  for (const std::size_t classes : {8, 9}) {
    EXPECT_EQ(ResultMemo(4, classes, QuantMode::Off).reply_bytes(),
              8 * classes);
    EXPECT_EQ(ResultMemo(4, classes, QuantMode::Bf16).reply_bytes(),
              2 * classes);
    const ResultMemo int8(4, classes, QuantMode::Int8);
    EXPECT_EQ(int8.reply_bytes(), classes + 8);
    EXPECT_EQ(int8.stride() % 8, 0u);
    EXPECT_LT(int8.stride() - int8.reply_bytes(), 8u);
  }
}

TEST(ResultMemo, DisabledMemoCanonicalizesButStoresNothing) {
  ResultMemo memo(0, 8, QuantMode::Int8);
  const std::vector<double> scores = {0.5, 0.25, 0.125, 0.0625,
                                      0.03125, 0.015625, 0.0078125, 0.0};
  std::vector<double> canonical = scores;
  std::vector<std::uint64_t> words(memo.stride() / sizeof(std::uint64_t));
  const std::span<std::byte> encoded =
      std::as_writable_bytes(std::span(words)).first(memo.reply_bytes());
  memo.canonicalize(canonical, encoded);
  EXPECT_TRUE(same_bits(canonical,
                        decode_reply(encode_reply(QuantMode::Int8, scores))));
  EXPECT_EQ(memo.store(7, 1, 0, true, encoded), std::nullopt);
  std::vector<double> decoded(8);
  EXPECT_FALSE(memo.lookup(7, 1, decoded).has_value());
  EXPECT_FALSE(memo.contains(7));
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_EQ(memo.bytes(), 0u);
}

TEST(ResultMemo, RejectsCapacityTheSlotIndexCannotAddress) {
  EXPECT_THROW(ResultMemo(ResultMemo::kMaxCapacity + 1, 8, QuantMode::Off),
               Error);
}

}  // namespace
}  // namespace muffin::serve
