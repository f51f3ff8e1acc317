// Versioned, epoch-guarded model ownership for the serving stack.
//
// Production serving never holds "the model" — it holds *a version of*
// the model, and versions change under live load. The registry makes
// that explicit: publishers install a new FusedModel under a strictly
// increasing version number, and readers pin an immutable snapshot for
// the duration of one unit of work (a batch).
//
// The concurrency scheme is RCU-by-shared_ptr: `current()` hands out a
// `shared_ptr<const ModelSnapshot>` under a short mutex, and holding
// that pointer *is* the epoch pin — the snapshot (and the FusedModel it
// owns) stays fully alive until the last in-flight holder drops it, no
// matter how many publishes happen in between. Publishing is a pointer
// swap; it never waits for readers, so a hot-swap cannot stall a batch
// and a batch cannot stall a hot-swap. Readers of different pins may
// run concurrently: all model state is const after construction.
//
// Version monotonicity is the rollback guard: an explicit publish
// version must exceed the current one (a stale artifact cannot roll a
// fleet backwards), and version 0 means "assign the next version" —
// the path unstamped artifacts use.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/error.h"
#include "core/fused.h"

namespace muffin::serve {

/// One immutable published model: the fused model plus the monotonic
/// lifecycle version it was installed under. Holding the snapshot pins
/// both (epoch semantics).
struct ModelSnapshot {
  std::shared_ptr<const core::FusedModel> model;
  std::uint64_t version = 0;
};

class ModelRegistry {
 public:
  /// Install the initial model under `version` (must be >= 1).
  ModelRegistry(std::shared_ptr<const core::FusedModel> model,
                std::uint64_t version) {
    MUFFIN_REQUIRE(model != nullptr, "model registry needs a model");
    MUFFIN_REQUIRE(version >= 1, "model versions start at 1");
    auto snapshot = std::make_shared<ModelSnapshot>();
    snapshot->model = std::move(model);
    snapshot->version = version;
    current_ = std::move(snapshot);
  }

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Pin the live snapshot. The returned pointer is the epoch guard:
  /// everything scored against it must read the model through it.
  [[nodiscard]] std::shared_ptr<const ModelSnapshot> current() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return current_;
  }

  /// The live version number (for display; racing a publish is benign).
  [[nodiscard]] std::uint64_t version() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return current_->version;
  }

  /// Publish `model` under `version` and return the installed snapshot.
  /// `version == 0` auto-assigns current + 1; an explicit version must
  /// be strictly greater than the current one (monotonic rollback
  /// guard). In-flight readers of older snapshots are unaffected.
  std::shared_ptr<const ModelSnapshot> publish(
      std::shared_ptr<const core::FusedModel> model,
      std::uint64_t version = 0) {
    MUFFIN_REQUIRE(model != nullptr, "cannot publish a null model");
    auto snapshot = std::make_shared<ModelSnapshot>();
    snapshot->model = std::move(model);
    const std::lock_guard<std::mutex> lock(mutex_);
    MUFFIN_REQUIRE(version == 0 || version > current_->version,
                   "model version " + std::to_string(version) +
                       " does not advance the registry (current " +
                       std::to_string(current_->version) + ")");
    snapshot->version = version == 0 ? current_->version + 1 : version;
    current_ = snapshot;
    return snapshot;
  }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const ModelSnapshot> current_;
};

}  // namespace muffin::serve
