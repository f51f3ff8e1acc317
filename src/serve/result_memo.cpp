#include "serve/result_memo.h"

#include <bit>
#include <cstring>
#include <new>
#include <string>

#include "common/error.h"
#include "common/hash.h"

namespace muffin::serve {

ResultMemo::ResultMemo(std::size_t capacity, std::size_t num_classes,
                       tensor::QuantMode mode)
    : capacity_(capacity),
      num_classes_(num_classes),
      mode_(mode),
      reply_bytes_(tensor::quant_encoded_bytes(mode, num_classes, 1)),
      stride_((reply_bytes_ + 7) / 8 * 8) {
  MUFFIN_REQUIRE(capacity <= kMaxCapacity,
                 "result memo capacity " + std::to_string(capacity) +
                     " exceeds the 32-bit slot index (max " +
                     std::to_string(kMaxCapacity) + ")");
  if (capacity == 0) return;
  static_assert(sizeof(Slot) == 32);
  slots_ = std::make_unique_for_overwrite<Slot[]>(capacity);
  // operator new[] aligns for double, and the stride keeps every slot so.
  slab_ = std::make_unique_for_overwrite<std::byte[]>(capacity * stride_);
  // At most half full, so a probe run stays short.
  const std::size_t buckets = std::bit_ceil(2 * capacity);
  index_.reset(static_cast<std::uint32_t*>(
      std::calloc(buckets, sizeof(std::uint32_t))));
  if (!index_) throw std::bad_alloc();
  mask_ = buckets - 1;
}

void ResultMemo::canonicalize(std::span<double> scores,
                              std::span<std::byte> encoded) const {
  MUFFIN_REQUIRE(scores.size() == num_classes_,
                 "memo reply has the wrong class count");
  tensor::quant_encode(mode_, num_classes_, 1, scores.data(),
                       /*row_stride=*/1, /*col_stride=*/1, encoded);
  tensor::quant_decode_rows(mode_, num_classes_, 1, encoded, 0, num_classes_,
                            scores);
}

std::size_t ResultMemo::find_bucket(std::uint64_t uid) const {
  std::size_t bucket = static_cast<std::size_t>(mix64(uid)) & mask_;
  while (index_[bucket] != 0 && slots_[index_[bucket] - 1].uid != uid) {
    bucket = (bucket + 1) & mask_;
  }
  return bucket;
}

void ResultMemo::erase_bucket(std::size_t hole) {
  for (std::size_t bucket = (hole + 1) & mask_; index_[bucket] != 0;
       bucket = (bucket + 1) & mask_) {
    const std::size_t home =
        static_cast<std::size_t>(mix64(slots_[index_[bucket] - 1].uid)) &
        mask_;
    // The entry may fill the hole only if the hole lies on its probe path
    // (cyclically in [home, bucket)).
    if (((bucket - home) & mask_) >= ((bucket - hole) & mask_)) {
      index_[hole] = index_[bucket];
      hole = bucket;
    }
  }
  index_[hole] = 0;
}

void ResultMemo::unlink(std::uint32_t slot) {
  const Slot& s = slots_[slot];
  (s.prev == kNone ? head_ : slots_[s.prev].next) = s.next;
  (s.next == kNone ? tail_ : slots_[s.next].prev) = s.prev;
}

void ResultMemo::push_front(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.prev = kNone;
  s.next = head_;
  (head_ == kNone ? tail_ : slots_[head_].prev) = slot;
  head_ = slot;
}

void ResultMemo::touch(std::uint32_t slot) {
  if (slot == head_) return;
  unlink(slot);
  push_front(slot);
}

void ResultMemo::write(std::uint32_t slot, std::uint64_t version,
                       std::size_t predicted, bool consensus,
                       std::span<const std::byte> encoded) {
  Slot& s = slots_[slot];
  s.version = version;
  s.predicted = static_cast<std::uint32_t>(predicted);
  s.consensus = consensus;
  std::memcpy(payload(slot).data(), encoded.data(), reply_bytes_);
}

std::optional<ResultMemo::Hit> ResultMemo::lookup(std::uint64_t uid,
                                                  std::uint64_t version,
                                                  std::span<double> scores) {
  if (capacity_ == 0) return std::nullopt;
  const std::uint32_t ref = index_[find_bucket(uid)];
  if (ref == 0) return std::nullopt;
  const std::uint32_t slot = ref - 1;
  const Slot& s = slots_[slot];
  if (s.version != version) return std::nullopt;
  touch(slot);
  tensor::quant_decode_rows(mode_, num_classes_, 1, payload(slot), 0,
                            num_classes_, scores);
  return Hit{s.predicted, s.consensus};
}

std::optional<std::uint64_t> ResultMemo::store(
    std::uint64_t uid, std::uint64_t version, std::size_t predicted,
    bool consensus, std::span<const std::byte> encoded) {
  if (capacity_ == 0) return std::nullopt;
  MUFFIN_REQUIRE(encoded.size() == reply_bytes_,
                 "memo reply has the wrong encoded size");
  std::size_t bucket = find_bucket(uid);
  if (index_[bucket] != 0) {
    const std::uint32_t slot = index_[bucket] - 1;
    // An older version's entry is replaced in place. The same or a newer
    // version (another batch raced this one to the record) is kept.
    if (slots_[slot].version < version) {
      write(slot, version, predicted, consensus, encoded);
    }
    touch(slot);
    return std::nullopt;
  }
  std::optional<std::uint64_t> evicted;
  std::uint32_t slot = tail_;
  if (size_ < capacity_) {
    slot = static_cast<std::uint32_t>(size_++);
  } else {
    evicted = slots_[slot].uid;
    erase_bucket(find_bucket(slots_[slot].uid));
    unlink(slot);
    // The backward shift may have moved where the probe for uid ends.
    bucket = find_bucket(uid);
  }
  slots_[slot].uid = uid;
  index_[bucket] = slot + 1;
  write(slot, version, predicted, consensus, encoded);
  push_front(slot);
  return evicted;
}

bool ResultMemo::contains(std::uint64_t uid) const {
  return capacity_ != 0 && index_[find_bucket(uid)] != 0;
}

}  // namespace muffin::serve
