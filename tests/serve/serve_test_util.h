// Shared fixture recipe for the serve test suites.
//
// Every serve suite exercises the same two-model muffin (ShuffleNet +
// DenseNet body, the paper's [.,18,12,.] head) over a calibrated ISIC
// pool; only dataset size/seed and training epochs vary per suite. The
// recipe lives here once so the three suites cannot drift, and each TU
// caches the (deterministic) result in a static — training once per
// binary instead of once per test, which matters ~10x under TSan.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/head_trainer.h"
#include "data/generators.h"
#include "data/serialize.h"
#include "models/pool.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "tensor/quant.h"

// True when the suite is built with -fsanitize=thread (GCC defines
// __SANITIZE_THREAD__, clang exposes __has_feature(thread_sanitizer)).
// Wall-clock bounds are unreliable under TSan's ~10x slowdown, so timing
// checks compile only when this is 0.
#if defined(__SANITIZE_THREAD__)
#define MUFFIN_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MUFFIN_UNDER_TSAN 1
#endif
#endif
#ifndef MUFFIN_UNDER_TSAN
#define MUFFIN_UNDER_TSAN 0
#endif

namespace muffin::serve::testutil {

/// What the engine replies for a record whose exact fused scores are
/// `scores`: canonicalized under the active quant mode, mirroring
/// ResultMemo::canonicalize (quantize exactly once from the float
/// scores, reply with the dequantized values). A no-op when
/// MUFFIN_QUANT is off, so exact-equality expectations against
/// FusedModel::scores hold in every CI quant lane.
inline tensor::Vector canonical_scores(tensor::Vector scores) {
  switch (tensor::active_quant_mode()) {
    case tensor::QuantMode::Off:
      break;
    case tensor::QuantMode::Bf16:
      for (double& s : scores) {
        s = tensor::bf16_to_double(tensor::bf16_from_double(s));
      }
      break;
    case tensor::QuantMode::Int8: {
      const double scale = tensor::i8_scale(scores);
      for (double& s : scores) {
        s = tensor::i8_to_double(tensor::i8_from_double(s, scale), scale);
      }
      break;
    }
  }
  return scores;
}

/// Requests timed by the engine.latency_us histogram in `metrics`.
inline std::uint64_t latency_count(const obs::MetricsSnapshot& metrics) {
  const obs::HistogramSnapshot* latency =
      metrics.find_histogram("engine.latency_us");
  return latency != nullptr ? latency->count : 0;
}

/// Requests waiting in every engine's queue (the process-wide
/// engine.batcher.depth gauge).
inline std::int64_t queued_requests() {
  return obs::registry().snapshot().gauge_value("engine.batcher.depth");
}

/// Submit `record` and return once it has left the engine's queue for
/// the pool. While that batch runs (held by a serve.engine.score delay),
/// the engine's later submits wait in its queue until max_batch of them
/// are queued. No other engine may queue meanwhile.
inline std::future<Prediction> submit_and_wait_for_dispatch(
    InferenceEngine& engine, const data::Record& record) {
  const std::int64_t before = queued_requests();
  std::future<Prediction> future = engine.submit(record);
  while (queued_requests() != before) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return future;
}

/// Train and fuse the standard two-model test muffin over `dataset`.
inline std::shared_ptr<core::FusedModel> build_fused(
    const models::ModelPool& pool, const data::Dataset& dataset,
    std::size_t epochs, bool head_only_on_disagreement = true) {
  rl::StructureChoice choice;
  choice.model_indices = {pool.index_of("ShuffleNet_V2_X1_0"),
                          pool.index_of("DenseNet121")};
  choice.hidden_dims = {18, 12};
  choice.activation = nn::Activation::Relu;
  const core::FusingStructure structure =
      core::FusingStructure::from_choice(choice, dataset.num_classes());

  const core::ScoreCache cache(pool, dataset);
  const core::ProxyDataset proxy = core::build_proxy(dataset);
  core::HeadTrainConfig config;
  config.epochs = epochs;
  nn::Mlp head = core::train_head(cache, dataset, proxy, structure, config);

  std::vector<models::ModelPtr> body = {pool.share(choice.model_indices[0]),
                                        pool.share(choice.model_indices[1])};
  return std::make_shared<core::FusedModel>("Muffin", std::move(body),
                                            std::move(head),
                                            head_only_on_disagreement);
}

/// Write `fused`'s head as a reload artifact, stamped or not (0). The
/// pid keeps concurrent runs of one test binary off each other's files.
inline std::string write_head_artifact(const core::FusedModel& fused,
                                       const char* stem,
                                       std::uint64_t model_version) {
  const std::string path = testing::TempDir() + "/" + stem + "_" +
                           std::to_string(::getpid()) + ".mufa";
  data::ArtifactWriter writer;
  fused.head().save_artifact(writer, "head");
  writer.set_model_version(model_version);
  writer.write_file(path);
  return path;
}

}  // namespace muffin::serve::testutil
