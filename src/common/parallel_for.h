// Partitioned parallel-for over the process-wide worker pool.
//
// parallel_for(n, grain, body) splits the index range [0, n) into
// contiguous blocks of at least `grain` indices and runs
// body(begin, end) for each block, using the shared pool returned by
// global_pool(), the same pool the serving engine and MuffinSearch use,
// so components never compete with per-call threads. Its one caller is
// CalibratedModel::score_batch (models/calibrated.cpp), the outermost
// loop of every ScoreCache build. GEMMs are not split: a block was a few
// microseconds of work, less than the hand-off to a worker costs.
// FusedModel::score_batch leaves the split to its calibrated bodies, so
// no split nests under another.
//
// Guarantees:
//  * Every index in [0, n) is covered by exactly one body(begin, end)
//    call with begin < end; blocks are contiguous and ascending per call
//    site. Work that makes each output element entirely inside one block
//    (e.g. one scored record per row) is therefore bit-identical to a
//    serial run.
//  * The calling thread participates: one block always runs inline, so a
//    one-worker pool (or an empty queue slot) never deadlocks a caller.
//  * Nested use is safe and serial: when the caller is already a pool
//    worker (ThreadPool::current_worker() != npos) — an engine batch job
//    scoring calibrated bodies — the whole range runs inline on that
//    worker instead of re-entering the pool, which would risk
//    worker-starvation deadlock.
//  * Exceptions from body propagate: the first block exception is
//    rethrown to the caller after all blocks finished (no detached work
//    left touching caller state).
//
// Serial fallbacks (n <= grain, single-worker pool, nested calls,
// MUFFIN_THREADS=1) run body(0, n) in one call on the calling thread.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "common/thread_pool.h"

namespace muffin::common {

/// The process-wide worker pool, created on first use. Sized by the
/// MUFFIN_THREADS environment variable when set (minimum 1), otherwise
/// std::thread::hardware_concurrency(). The serving engine, MuffinSearch
/// and parallel_for all share this instance.
[[nodiscard]] ThreadPool& global_pool();

/// Number of workers global_pool() has (or would have): reads the
/// configuration without forcing pool creation on the first call.
[[nodiscard]] std::size_t global_pool_size();

namespace detail {
/// Out-of-line parallel path; requires a partition of at least 2 blocks.
void parallel_for_impl(std::size_t n, std::size_t grain,
                       const std::function<void(std::size_t, std::size_t)>&
                           body);
}  // namespace detail

/// Run body(begin, end) over a partition of [0, n) as described above.
/// `grain` is the minimum block size (0 is treated as 1). The serial
/// fallbacks (nested-in-worker, single-worker pool, range below two
/// grains) are decided inline before any allocation, so calls from pool
/// workers — every engine batch — pay two thread-local/static reads and
/// no std::function or partition vector.
template <typename Body>
void parallel_for(std::size_t n, std::size_t grain, Body&& body) {
  if (n == 0) return;
  const std::size_t g = grain == 0 ? 1 : grain;
  if (n / g < 2 || global_pool_size() <= 1 ||
      ThreadPool::current_worker() != ThreadPool::npos) {
    body(std::size_t{0}, n);
    return;
  }
  detail::parallel_for_impl(
      n, g, std::function<void(std::size_t, std::size_t)>(
                std::forward<Body>(body)));
}

/// The partition parallel_for would use for `n` indices at `grain` with
/// `workers` pool threads: contiguous ascending [begin, end) blocks, every
/// index exactly once, each block at least `grain` indices (never more
/// blocks than workers; a single block means "run inline"). Exposed so the
/// partition rules are testable without depending on the machine's pool.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
partition_blocks(std::size_t n, std::size_t grain, std::size_t workers);

}  // namespace muffin::common

namespace muffin {
using common::global_pool;
using common::parallel_for;
}  // namespace muffin
