// Stable 64-bit hashing and consistent-hash placement.
//
// The serving tier routes requests by record uid, so the hash functions
// here must be (a) deterministic across runs and platforms — a shard map
// computed today must match one computed tomorrow — and (b) well mixed,
// because uids are often small sequential integers and the ring relies on
// uniform placement. `mix64` is the splitmix64 finalizer (Steele et al.),
// the standard cheap bijective mixer; `splitmix64_next` is the matching
// sequential stream used where a lightweight deterministic RNG is enough
// (failpoint firing, reconnect-backoff jitter, tie-breaking in tests).
//
// HashRing implements consistent hashing with virtual nodes: each node
// owns `virtual_nodes` pseudo-random points on a 64-bit ring and a key is
// served by the node owning the first point at or after the key's hash
// (wrapping). Adding or removing one node therefore only remaps the keys
// adjacent to that node's points — expected K/N of K keys for N nodes —
// which is what keeps per-shard result memos hot across reshards.
// HashRing itself is not thread-safe; callers (serve::ShardRouter)
// synchronize around topology changes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace muffin {

/// splitmix64 finalizer: a bijective avalanche mix of one 64-bit word.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One step of the splitmix64 stream: advances `state`, returns a uniform
/// 64-bit value. Same (state) sequence on every platform.
[[nodiscard]] constexpr std::uint64_t splitmix64_next(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  return mix64(state);
}

/// Order-dependent combination of two 64-bit hashes.
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t a,
                                                   std::uint64_t b) {
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// Consistent-hash ring with virtual nodes.
class HashRing {
 public:
  /// `virtual_nodes` ring points per node; more points give a smoother
  /// key distribution at the cost of a larger ring (lookup is O(log V·N)).
  explicit HashRing(std::size_t virtual_nodes = 64);

  /// Place `node` on the ring. Throws if it is already present.
  void add(std::uint64_t node);

  /// Take `node` off the ring; its keys remap to ring successors. Throws
  /// if the node is not present.
  void remove(std::uint64_t node);

  [[nodiscard]] bool contains(std::uint64_t node) const;
  [[nodiscard]] std::size_t nodes() const { return members_.size(); }
  [[nodiscard]] bool empty() const { return ring_.empty(); }
  [[nodiscard]] std::size_t virtual_nodes() const { return virtual_nodes_; }

  /// The node owning `key` (the key is mixed internally, so raw sequential
  /// uids are fine). Throws if the ring is empty.
  [[nodiscard]] std::uint64_t node_for(std::uint64_t key) const;

  /// The first node for `key`, walking the ring clockwise, that is not in
  /// `avoid` — the failover successor when the owners in `avoid` have
  /// already failed the request. With an empty avoid list this is exactly
  /// node_for. Returns nullopt when every member is avoided; throws if
  /// the ring is empty.
  [[nodiscard]] std::optional<std::uint64_t> node_for_excluding(
      std::uint64_t key, const std::vector<std::uint64_t>& avoid) const;

 private:
  std::size_t virtual_nodes_;
  /// Sorted (ring point, node) pairs; ties broken by node id so the map is
  /// deterministic regardless of insertion order.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ring_;
  std::vector<std::uint64_t> members_;  ///< sorted distinct node ids
};

}  // namespace muffin
