// The engine's result memo: a bounded, exact-LRU map from record uid to
// one memoized reply, kept in three flat arrays sized once at
// construction from EngineConfig::result_cache_capacity.
//
//  * Slots: uid, model version, predicted class, consensus flag, and the
//    LRU prev/next links as 32-bit slot indices — 32 bytes per entry.
//  * Payload slab: slot s's encoded scores at byte s * stride(), in the
//    layout tensor::quant_encode writes for a C x 1 matrix (int8: the one
//    f64 scale, then C bytes). The stride is rounded up to 8 bytes, so
//    every slot's int8 scale stays aligned whatever C is.
//  * Index: open-addressed uid -> slot, linear probing over a power-of-two
//    table at most half full, backward-shift deletion (no tombstones).
//
// Slots fill in order, then the least recently used one is recycled, so
// neither a store nor a hit allocates. The slab and the slots are
// allocated uninitialized, so their pages fault in as entries are
// written, not at construction; the index comes from calloc, which can
// hand out fresh zero pages without touching them.
//
// Eviction is exact LRU, not CLOCK: CLOCK would change which entries
// survive and with them the hit rate; the links cost 8 bytes per slot.
//
// Entries carry the model version that scored them. A lookup under
// another version misses and the entry earns no recency; a store that
// finds the same or a newer version keeps that entry and refreshes it;
// a store that finds an older one replaces it in place. So a hot-swap
// can never serve a pre-swap score.
//
// Not thread-safe: InferenceEngine guards it with one mutex, taken once
// per batch for its lookups and once for its stores.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <span>

#include "tensor/quant.h"

namespace muffin::serve {

class ResultMemo {
 public:
  /// The largest capacity a 32-bit slot index can address.
  static constexpr std::size_t kMaxCapacity =
      std::numeric_limits<std::uint32_t>::max();

  /// Room for `capacity` replies of `num_classes` scores stored in
  /// `mode`; 0 disables the memo (lookups miss, stores are dropped).
  /// Throws muffin::Error when capacity exceeds kMaxCapacity.
  ResultMemo(std::size_t capacity, std::size_t num_classes,
             tensor::QuantMode mode);

  /// What a hit returns besides its decoded scores.
  struct Hit {
    std::size_t predicted = 0;
    bool consensus = false;
  };

  /// Encode `scores` (num_classes values) into `encoded` (reply_bytes())
  /// and overwrite them with the decode of those bytes: the canonical
  /// reply, bit-identical to what any later hit on an entry stored from
  /// `encoded` decodes, with nothing ever re-quantized. Reads no memo
  /// state, so callers need no lock.
  void canonicalize(std::span<double> scores,
                    std::span<std::byte> encoded) const;

  /// The entry for `uid` scored under `version`: decodes its scores into
  /// `scores` (num_classes values) and makes it the most recently used.
  /// An entry of another version misses and keeps its place.
  [[nodiscard]] std::optional<Hit> lookup(std::uint64_t uid,
                                          std::uint64_t version,
                                          std::span<double> scores);

  /// Memoize one reply, `encoded` as canonicalize() wrote it. Returns the
  /// uid evicted to make room, if any.
  std::optional<std::uint64_t> store(std::uint64_t uid, std::uint64_t version,
                                     std::size_t predicted, bool consensus,
                                     std::span<const std::byte> encoded);

  /// Whether `uid` is memoized (any version); does not touch recency.
  [[nodiscard]] bool contains(std::uint64_t uid) const;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] tensor::QuantMode mode() const { return mode_; }
  /// Encoded bytes of one reply: C scores at the mode's width, plus the
  /// 8-byte scale in int8.
  [[nodiscard]] std::size_t reply_bytes() const { return reply_bytes_; }
  /// reply_bytes() rounded up to 8: the distance between slab slots.
  [[nodiscard]] std::size_t stride() const { return stride_; }
  /// Reply payload held: reply_bytes() per live entry.
  [[nodiscard]] std::size_t bytes() const { return size_ * reply_bytes_; }

 private:
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  struct Slot {
    std::uint64_t uid;
    std::uint64_t version;   ///< model version that scored the reply
    std::uint32_t prev;      ///< more recently used slot, or kNone
    std::uint32_t next;      ///< less recently used slot, or kNone
    std::uint32_t predicted;
    bool consensus;
  };

  struct FreeDeleter {
    void operator()(std::uint32_t* p) const { std::free(p); }
  };

  [[nodiscard]] std::span<std::byte> payload(std::uint32_t slot) const {
    return {slab_.get() + slot * stride_, reply_bytes_};
  }
  /// The bucket that holds `uid`, or the empty bucket its probe ends on.
  [[nodiscard]] std::size_t find_bucket(std::uint64_t uid) const;
  /// Empty `bucket` and shift later entries of its probe run back.
  void erase_bucket(std::size_t bucket);
  void unlink(std::uint32_t slot);
  void push_front(std::uint32_t slot);
  /// Make `slot` the most recently used.
  void touch(std::uint32_t slot);
  void write(std::uint32_t slot, std::uint64_t version, std::size_t predicted,
             bool consensus, std::span<const std::byte> encoded);

  std::size_t capacity_;
  std::size_t num_classes_;
  tensor::QuantMode mode_;
  std::size_t reply_bytes_;
  std::size_t stride_;
  std::size_t size_ = 0;
  std::uint32_t head_ = kNone;  ///< most recently used slot
  std::uint32_t tail_ = kNone;  ///< least recently used slot
  std::unique_ptr<Slot[]> slots_;
  std::unique_ptr<std::byte[]> slab_;
  /// Bucket -> slot + 1 (0 = empty); mask_ + 1 buckets.
  std::unique_ptr<std::uint32_t[], FreeDeleter> index_;
  std::size_t mask_ = 0;
};

}  // namespace muffin::serve
