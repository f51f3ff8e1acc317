// Chaos suite: the serving path under injected faults.
//
// The contract under test, in order of importance:
//  1. ZERO WRONG ANSWERS. Whatever faults are injected — socket errors,
//     scoring delays, killed shards — every prediction a caller receives
//     is bit-identical to testutil::canonical_scores(FusedModel::scores).
//     Faults may turn answers into errors, never into different answers.
//  2. Failover masks single-shard death: with retries enabled, hard-
//     killing one of N shards produces zero caller-visible errors.
//  3. Overload sheds fast and is never retried: a bounded queue rejects
//     at enqueue in microseconds (not after queueing for the scoring
//     latency), and muffin::Overloaded propagates without burning the
//     retry budget.
//  4. Faults are transient: once failpoints clear, the same engines,
//     shards and routers serve perfectly again — no poisoned state.
//
// Topologies: in-process engines/routers, and real loopback ShardServers
// behind RemoteShard clients (from the client's viewpoint another
// process). CI's `chaos` lane additionally runs the true two-process
// topology via `muffin_cli serve --listen` under MUFFIN_FAILPOINTS.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/failpoint.h"
#include "obs/metrics.h"
#include "router_test_access.h"
#include "serve/engine.h"
#include "serve/router.h"
#include "serve/rpc/server.h"
#include "serve_test_util.h"
#include "tensor/ops.h"

namespace muffin::serve {
namespace {

using namespace std::chrono_literals;

const data::Dataset& chaos_dataset() {
  static const data::Dataset ds = data::synthetic_isic2019(500, 53);
  return ds;
}

const models::ModelPool& chaos_pool() {
  static const models::ModelPool pool =
      models::calibrated_isic_pool(chaos_dataset());
  return pool;
}

std::shared_ptr<core::FusedModel> make_fused() {
  static const std::shared_ptr<core::FusedModel> shared =
      testutil::build_fused(chaos_pool(), chaos_dataset(), /*epochs=*/4);
  return shared;
}

/// The only answer a caller may ever see for `record`.
tensor::Vector expected_scores(const data::Record& record) {
  return testutil::canonical_scores(make_fused()->scores(record));
}

std::uint64_t counter_value(std::string_view name) {
  return obs::registry().snapshot().counter_value(name);
}

/// Wait until `predicate` holds or `deadline_ms` expires.
bool eventually(const std::function<bool()>& predicate,
                std::size_t deadline_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(10ms);
  }
  return predicate();
}

// ---------------------------------------------------------------------
// ChaosEngine: faults inside one engine.
// ---------------------------------------------------------------------

TEST(ChaosEngine, ScoringDelayNeverChangesAnswers) {
  const fail::ScopedFailpoints guard("serve.engine.score=delay:20ms");
  InferenceEngine engine(make_fused(), {.max_batch = 8});
  std::span<const data::Record> records = chaos_dataset().records();
  const std::vector<Prediction> predictions =
      engine.predict_batch(records.subspan(0, 48));
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    ASSERT_EQ(predictions[i].scores, expected_scores(records[i]))
        << "record " << i;
  }
  EXPECT_GT(fail::hits("serve.engine.score"), 0u);
  engine.shutdown();
}

TEST(ChaosEngine, ScoreErrorFailsWholeBatchThenRecovers) {
  InferenceEngine engine(make_fused(), {.max_batch = 16});
  std::span<const data::Record> records = chaos_dataset().records();
  {
    const fail::ScopedFailpoints guard("serve.engine.score=error");
    // All-or-error: an injected scoring fault fails EVERY request of the
    // batch — never a silent partial result — on the queued path and on
    // the direct one alike.
    std::vector<std::future<Prediction>> futures;
    for (std::size_t i = 0; i < 16; ++i) {
      futures.push_back(engine.submit(records[i]));
    }
    for (std::future<Prediction>& future : futures) {
      EXPECT_THROW((void)future.get(), Error);
    }
    EXPECT_THROW((void)engine.predict_batch(records.subspan(0, 16)), Error);
  }
  // The fault was in the injected scoring pass, not the engine: with the
  // failpoint cleared the same engine serves the same records perfectly.
  const std::vector<Prediction> predictions =
      engine.predict_batch(records.subspan(0, 16));
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    ASSERT_EQ(predictions[i].scores, expected_scores(records[i]));
  }
  engine.shutdown();
}

TEST(ChaosEngine, InjectedSwapFaultNeverTouchesTheServingModel) {
  // The hot-swap path has its own failpoint: an injected fault must land
  // before the registry publish, so a failed rollout leaves the serving
  // model, its version and its memo exactly as they were — and the same
  // swap succeeds once the fault clears.
  InferenceEngine engine(make_fused(), {.max_batch = 8});
  const data::Record& record = chaos_dataset().record(0);
  ASSERT_EQ(engine.predict(record).scores, expected_scores(record));
  const auto replacement =
      testutil::build_fused(chaos_pool(), chaos_dataset(), /*epochs=*/2);
  {
    const fail::ScopedFailpoints guard("serve.engine.swap=error");
    EXPECT_THROW((void)engine.swap_model(replacement), Error);
    EXPECT_GT(fail::hits("serve.engine.swap"), 0u);
    EXPECT_EQ(engine.model_version(), 1u);
    EXPECT_EQ(engine.swaps(), 0u);
    EXPECT_EQ(engine.predict(record).scores, expected_scores(record));
  }
  EXPECT_EQ(engine.swap_model(replacement), 2u);
  EXPECT_EQ(engine.predict(record).scores,
            testutil::canonical_scores(replacement->scores(record)));
  engine.shutdown();
}

// ---------------------------------------------------------------------
// ChaosShed: bounded-queue admission and deadline propagation.
// ---------------------------------------------------------------------

TEST(ChaosShed, OverloadRejectsFastAndKeepsAcceptedAnswersExact) {
  const std::uint64_t shed_before = counter_value("serve.shed");
  // Held scoring and a huge size threshold keep submissions queued behind
  // the one running request: admission is exercised by the queue bound
  // alone.
  const fail::ScopedFailpoints hold("serve.engine.score=delay:150ms");
  EngineConfig config;
  config.max_batch = 1000;
  config.max_queue = 4;
  InferenceEngine engine(make_fused(), config);
  std::span<const data::Record> records = chaos_dataset().records();

  std::vector<std::future<Prediction>> accepted;
  std::vector<std::size_t> accepted_idx;
  accepted.push_back(
      testutil::submit_and_wait_for_dispatch(engine, records[0]));
  accepted_idx.push_back(0);
  std::size_t shed = 0;
  double worst_rejection_us = 0.0;
  for (std::size_t i = 1; i <= 20; ++i) {
    const auto start = std::chrono::steady_clock::now();
    try {
      accepted.push_back(engine.submit(records[i]));
      accepted_idx.push_back(i);
    } catch (const Overloaded&) {
      const auto elapsed = std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start);
      worst_rejection_us = std::max(worst_rejection_us, elapsed.count());
      ++shed;
    }
  }
  EXPECT_EQ(accepted.size(), 5u);  // the running one and four queued
  EXPECT_EQ(shed, 16u);
  // The whole point of shedding at enqueue: rejection is reported in
  // microseconds while an accepted request waits 150 ms or more for its
  // reply. Give the bound 20 ms of scheduler slack — still ~7x under the
  // scoring-path latency it must beat.
  EXPECT_LT(worst_rejection_us, 20'000.0);
  EXPECT_EQ(counter_value("serve.shed"), shed_before + 16);

  for (std::size_t i = 0; i < accepted.size(); ++i) {
    const Prediction prediction = accepted[i].get();
    ASSERT_EQ(prediction.scores, expected_scores(records[accepted_idx[i]]));
  }
  // A shed request is counted once, as a shed: the engine's request count
  // holds only the admitted five.
  const obs::MetricsSnapshot metrics = engine.metrics();
  EXPECT_EQ(metrics.counter_value("engine.requests"), 5u);
  EXPECT_EQ(metrics.counter_value("serve.shed"), 16u);
  engine.shutdown();
}

TEST(ChaosShed, DeadlineDropsStaleRequestsBeforeScoring) {
  const std::uint64_t drops_before = counter_value("serve.deadline_drops");
  EngineConfig config;
  config.max_batch = 8;
  // Deadline well under the scoring hold below (so requests queued behind
  // it always overstay it) but generous against scheduler noise — the
  // requests on an idle engine must be picked up inside it even under
  // TSan.
  config.deadline = 100ms;
  InferenceEngine engine(make_fused(), config);
  std::span<const data::Record> records = chaos_dataset().records();

  // On an idle engine requests leave at once: well inside the deadline.
  std::vector<std::future<Prediction>> fast;
  for (std::size_t i = 0; i < 8; ++i) fast.push_back(engine.submit(records[i]));
  for (std::size_t i = 0; i < fast.size(); ++i) {
    ASSERT_EQ(fast[i].get().scores, expected_scores(records[i]));
  }

  // Scoring held 400 ms: one request runs while three queue behind it. By
  // the time the held batch finishes, every queued request has overstayed
  // the 100 ms serving deadline and must be dropped without any scoring
  // work.
  const fail::ScopedFailpoints hold("serve.engine.score=delay:400ms");
  const std::uint64_t scored_before = fail::hits("serve.engine.score");
  std::future<Prediction> running =
      testutil::submit_and_wait_for_dispatch(engine, records[99]);
  std::vector<std::future<Prediction>> stale;
  for (std::size_t i = 100; i < 103; ++i) {
    stale.push_back(engine.submit(records[i]));
  }
  for (std::future<Prediction>& future : stale) {
    try {
      (void)future.get();
      FAIL() << "stale request was served past its deadline";
    } catch (const DeadlineExceeded& error) {
      EXPECT_NE(std::string(error.what()).find("deadline"),
                std::string::npos);
    }
  }
  EXPECT_EQ(running.get().scores, expected_scores(records[99]));
  EXPECT_EQ(counter_value("serve.deadline_drops"), drops_before + 3);
  EXPECT_EQ(fail::hits("serve.engine.score"), scored_before + 1);
  engine.shutdown();
}

// ---------------------------------------------------------------------
// ChaosRouter: retry/failover over in-process replicas.
// ---------------------------------------------------------------------

RouterConfig local_router(std::size_t shards, std::size_t max_attempts) {
  RouterConfig config;
  config.shards = shards;
  config.engine.max_batch = 8;
  config.retry.max_attempts = max_attempts;
  return config;
}

TEST(ChaosRouter, FailoverMasksAKilledReplicaCompletely) {
  const std::uint64_t retries_before = counter_value("serve.retries");
  const std::uint64_t failovers_before = counter_value("serve.failovers");
  ShardRouter router(make_fused(), local_router(/*shards=*/3,
                                                /*max_attempts=*/3));
  std::span<const data::Record> records = chaos_dataset().records();

  // Kill one replica's backend while it is still on the ring — the exact
  // window between a crash and the health monitor noticing. Without
  // retries every record routed there would error.
  RouterTestAccess::shutdown_backend(router, 1);

  const std::vector<Prediction> predictions =
      router.predict_batch(records.subspan(0, 120));
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    ASSERT_EQ(predictions[i].scores, expected_scores(records[i]))
        << "record " << i;
  }
  // ~a third of the keys route to the dead shard; each must have burned
  // one retry and failed over to a live replica.
  const std::uint64_t retries = counter_value("serve.retries") - retries_before;
  const std::uint64_t failovers =
      counter_value("serve.failovers") - failovers_before;
  EXPECT_GT(retries, 0u);
  EXPECT_EQ(retries, failovers);  // every retry crossed to another shard
  router.shutdown();
}

TEST(ChaosRouter, WithoutRetriesAKilledReplicaIsVisible) {
  // Control experiment for the test above: same kill, retries disabled —
  // the router's all-or-error predict_batch must surface the failure.
  ShardRouter router(make_fused(), local_router(/*shards=*/3,
                                                /*max_attempts=*/1));
  std::span<const data::Record> records = chaos_dataset().records();
  RouterTestAccess::shutdown_backend(router, 1);
  EXPECT_THROW((void)router.predict_batch(records.subspan(0, 120)), Error);
  router.shutdown();
}

TEST(ChaosRouter, OverloadedIsNeverRetried) {
  const std::uint64_t retries_before = counter_value("serve.retries");
  // Held scoring: each shard's first request runs while the next two
  // queue behind it, and the rest are shed.
  const fail::ScopedFailpoints hold("serve.engine.score=delay:100ms");
  RouterConfig config = local_router(/*shards=*/2, /*max_attempts=*/3);
  config.engine.max_batch = 1000;
  config.engine.max_queue = 2;
  ShardRouter router(make_fused(), config);
  std::span<const data::Record> records = chaos_dataset().records();

  std::size_t shed = 0;
  std::vector<std::future<Prediction>> accepted;
  for (std::size_t i = 0; i < 30; ++i) {
    try {
      accepted.push_back(router.submit(records[i]));
    } catch (const Overloaded&) {
      ++shed;  // correct type propagated through the retry wrapper
    }
  }
  EXPECT_GT(shed, 0u);
  for (std::future<Prediction>& future : accepted) (void)future.get();
  // A shed is the engine saying "I am at capacity" — retrying it against
  // the other (equally loaded, or soon to be) replica would convert load
  // shedding into load amplification.
  EXPECT_EQ(counter_value("serve.retries"), retries_before);
  router.shutdown();
}

TEST(ChaosRouter, InjectedRouterFaultsAreRetriedTransparently) {
  // serve.router.submit faults fire on ~10% of submit attempts (all
  // replicas). With 6 attempts per request the router must absorb every
  // one of them — and because draws happen only on this test thread, the
  // fault pattern is deterministic.
  const fail::ScopedFailpoints guard("serve.router.submit=error:0.1");
  ShardRouter router(make_fused(), local_router(/*shards=*/2,
                                                /*max_attempts=*/6));
  std::span<const data::Record> records = chaos_dataset().records();
  const std::vector<Prediction> predictions =
      router.predict_batch(records.subspan(0, 100));
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    ASSERT_EQ(predictions[i].scores, expected_scores(records[i]));
  }
  EXPECT_GT(fail::hits("serve.router.submit"), 0u);
  router.shutdown();
}

TEST(ChaosRouter, EveryAttemptIsARealSubmit) {
  // max_attempts counts submits. Once both replicas have failed a
  // request, its next retry gets the full ring back instead of spending an
  // attempt, a retry token and a serve.retries count on a routing failure.
  const std::uint64_t submits_before =
      counter_value("router.submit_failures");
  const std::uint64_t retries_before = counter_value("serve.retries");
  RouterConfig config = local_router(/*shards=*/2, /*max_attempts=*/4);
  config.health.probe_interval = 0ms;  // nothing drains the dead shards
  ShardRouter router(make_fused(), config);
  RouterTestAccess::shutdown_backend(router, 0);
  RouterTestAccess::shutdown_backend(router, 1);
  EXPECT_THROW((void)router.predict(chaos_dataset().record(0)), Error);
  EXPECT_EQ(counter_value("router.submit_failures") - submits_before, 4u);
  EXPECT_EQ(counter_value("serve.retries") - retries_before, 3u);
  router.shutdown();
}

// ---------------------------------------------------------------------
// ChaosRpc: real loopback sockets, killed shards, injected wire faults.
// ---------------------------------------------------------------------

RouterConfig remote_router(const std::vector<std::string>& endpoints,
                           std::size_t max_attempts) {
  RouterConfig config;
  config.shards = 0;
  config.remote_endpoints = endpoints;
  config.remote.connections = 2;
  config.remote.max_batch = 16;
  config.remote.connect_timeout = 500ms;
  config.remote.request_timeout = 2000ms;
  config.remote.backoff_initial = 20ms;
  config.remote.backoff_cap = 100ms;
  config.health.probe_interval = 0ms;  // tests drive health explicitly
  config.retry.max_attempts = max_attempts;
  return config;
}

TEST(ChaosRpc, HardKilledShardWithRetriesZeroCallerErrors) {
  const auto fused = make_fused();
  auto server0 =
      std::make_unique<rpc::ShardServer>(fused, "127.0.0.1:0");
  rpc::ShardServer server1(fused, "127.0.0.1:0");
  ShardRouter router(nullptr,
                     remote_router({server0->address(), server1.address()},
                                   /*max_attempts=*/3));
  std::span<const data::Record> records = chaos_dataset().records();

  // Warm round: both shards serving, zero faults.
  const std::vector<Prediction> warm =
      router.predict_batch(records.subspan(0, 60));
  for (std::size_t i = 0; i < warm.size(); ++i) {
    ASSERT_EQ(warm[i].scores, expected_scores(records[i]));
  }

  // Hard-kill shard 0 (connections reset, endpoint refuses dials). The
  // acceptance bar: predict_batch still succeeds with ZERO caller-
  // visible errors, and every answer is still bit-identical.
  const std::uint64_t failovers_before = counter_value("serve.failovers");
  server0->stop();
  server0.reset();
  const std::vector<Prediction> degraded =
      router.predict_batch(records.subspan(60, 100));
  for (std::size_t i = 0; i < degraded.size(); ++i) {
    ASSERT_EQ(degraded[i].scores, expected_scores(records[60 + i]))
        << "record " << 60 + i;
  }
  EXPECT_GT(counter_value("serve.failovers"), failovers_before);
  router.shutdown();
  server1.stop();
}

TEST(ChaosRpc, InjectedSocketFaultsBoundedFailuresAndFullRecovery) {
  const auto fused = make_fused();
  rpc::ShardServer server0(fused, "127.0.0.1:0");
  rpc::ShardServer server1(fused, "127.0.0.1:0");
  ShardRouter router(nullptr,
                     remote_router({server0.address(), server1.address()},
                                   /*max_attempts=*/4));
  std::span<const data::Record> records = chaos_dataset().records();

  std::size_t failures = 0;
  std::size_t successes = 0;
  {
    // ~5% of client frame sends die mid-batch. Per-request: one submit
    // per attempt, up to 4 attempts — a caller-visible failure needs a
    // 4-deep chain of faults.
    const fail::ScopedFailpoints guard("rpc.client.send=error:0.05");
    for (std::size_t i = 0; i < 150; ++i) {
      try {
        const Prediction prediction = router.predict(records[i]);
        // Never a wrong answer, no matter what the fault pattern was.
        ASSERT_EQ(prediction.scores, expected_scores(records[i]))
            << "record " << i;
        ++successes;
      } catch (const Error&) {
        ++failures;
      }
    }
    EXPECT_GT(fail::hits("rpc.client.send"), 0u);
  }
  // Bounded client-visible failures: the retry layer absorbs the chain
  // in all but pathological draw sequences.
  EXPECT_GE(successes, 145u);
  EXPECT_LE(failures, 5u);

  // Faults cleared: full recovery, zero failures, still bit-identical.
  const std::vector<Prediction> recovered =
      router.predict_batch(records.subspan(200, 60));
  for (std::size_t i = 0; i < recovered.size(); ++i) {
    ASSERT_EQ(recovered[i].scores, expected_scores(records[200 + i]));
  }
  router.shutdown();
  server0.stop();
  server1.stop();
}

TEST(ChaosRpc, PredictBatchIsAllOrErrorUnderWireFaults) {
  // No retries here: the all-or-error contract itself is under test. A
  // predict_batch either returns every answer (all bit-identical) or
  // throws — and after a throw the router must be immediately reusable.
  const auto fused = make_fused();
  rpc::ShardServer server0(fused, "127.0.0.1:0");
  rpc::ShardServer server1(fused, "127.0.0.1:0");
  ShardRouter router(nullptr,
                     remote_router({server0.address(), server1.address()},
                                   /*max_attempts=*/1));
  std::span<const data::Record> records = chaos_dataset().records();

  std::size_t failed_batches = 0;
  {
    const fail::ScopedFailpoints guard("socket.send=error:0.02");
    for (std::size_t round = 0; round < 10; ++round) {
      try {
        const std::vector<Prediction> predictions =
            router.predict_batch(records.subspan(round * 30, 30));
        ASSERT_EQ(predictions.size(), 30u);
        for (std::size_t i = 0; i < predictions.size(); ++i) {
          ASSERT_EQ(predictions[i].scores,
                    expected_scores(records[round * 30 + i]))
              << "round " << round << " record " << i;
        }
      } catch (const Error&) {
        ++failed_batches;  // complete failure is the only allowed failure
      }
    }
  }
  EXPECT_LT(failed_batches, 10u);  // the path was not fully wedged
  // Quiesce worked after every failure: a clean batch serves perfectly.
  const std::vector<Prediction> predictions =
      router.predict_batch(records.subspan(0, 30));
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    ASSERT_EQ(predictions[i].scores, expected_scores(records[i]));
  }
  router.shutdown();
  server0.stop();
  server1.stop();
}

TEST(ChaosDrain, ServerDrainDeliversAcceptedWorkThenRefusesNewConnections) {
  // The graceful-shutdown contract (SIGTERM in muffin_cli): a client
  // whose requests are already on the wire never sees the shard die —
  // drain() must finish those frames, then close up, bounded by the
  // grace window (a regression here hangs the deploy path, not a test
  // assertion, so the elapsed bound matters as much as the answers).
  const auto fused = make_fused();
  rpc::ShardServer server(fused, "127.0.0.1:0");
  rpc::RemoteShardConfig client_config;
  client_config.connections = 2;
  client_config.max_batch = 16;
  client_config.connect_timeout = 500ms;
  client_config.request_timeout = 5000ms;
  rpc::RemoteShard shard(server.address(), client_config);
  std::span<const data::Record> records = chaos_dataset().records();

  // Slow scoring down so the drain demonstrably overlaps in-flight work
  // instead of racing an already-empty pipeline.
  const fail::ScopedFailpoints guard("serve.engine.score=delay:10ms");
  std::vector<std::future<Prediction>> futures;
  for (std::size_t i = 0; i < 48; ++i) {
    futures.push_back(shard.submit(records[i]));
  }
  // Let the client send every frame before the listener goes away; drain
  // protects accepted work, not requests still sitting in the sender's
  // queue.
  std::this_thread::sleep_for(100ms);

  const auto start = std::chrono::steady_clock::now();
  server.drain(5000ms);
  const auto drain_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  // Well under the grace ceiling: the poll loop exits once every
  // connection is idle, it does not sit out the window (and it must never
  // hang).
  EXPECT_LT(drain_ms, 4000);

  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Prediction prediction = futures[i].get();  // throws = lost work
    ASSERT_EQ(prediction.scores, expected_scores(records[i])) << "record "
                                                              << i;
  }

  // The listener is gone: a fresh client cannot connect, so new work
  // fails fast instead of landing on a half-dead server.
  rpc::RemoteShard late(server.address(), client_config);
  std::future<Prediction> refused = late.submit(records[0]);
  EXPECT_THROW((void)refused.get(), Error);
  late.shutdown();
  shard.shutdown();
}

TEST(ChaosDrain, ServerDrainWaitsForRepliesStillBeingScored) {
  // drain() lands while the engine is still scoring an accepted frame:
  // its reply is owed until it is written, so the server must not shut
  // the socket under it. The drain starts once the batch is inside its
  // 80 ms scoring delay (a delay hit counts before it sleeps), not after
  // a fixed pause that could race the connect.
  const auto fused = make_fused();
  rpc::ShardServer server(fused, "127.0.0.1:0");
  rpc::RemoteShardConfig client_config;
  client_config.connections = 1;
  client_config.max_batch = 16;  // 16 records fill at most both slots
  client_config.connect_timeout = 500ms;
  client_config.request_timeout = 5000ms;
  rpc::RemoteShard shard(server.address(), client_config);
  std::span<const data::Record> records = chaos_dataset().records();

  const fail::ScopedFailpoints guard("serve.engine.score=delay:80ms");
  const std::uint64_t scored_before = fail::hits("serve.engine.score");
  std::vector<std::future<Prediction>> futures;
  for (std::size_t i = 0; i < 16; ++i) {
    futures.push_back(shard.submit(records[i]));
  }
  ASSERT_TRUE(eventually([&]() {
    return fail::hits("serve.engine.score") > scored_before;
  }));
  server.drain(5000ms);

  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Prediction prediction = futures[i].get();  // throws = lost reply
    ASSERT_EQ(prediction.scores, expected_scores(records[i])) << "record "
                                                              << i;
  }
  shard.shutdown();
}

TEST(ChaosDrain, ServerDrainServesFramesPipelinedOnOneConnection) {
  // One connection scores its frames one after another, so when drain()
  // lands during the first pipelined frame, the next is still unread in
  // the socket, and the client sends the one after as soon as the first
  // reply frees its slot. Drain must answer them all: each was on the
  // wire before the connection went idle.
  const auto fused = make_fused();
  rpc::ShardServer server(fused, "127.0.0.1:0");
  rpc::RemoteShardConfig client_config;
  client_config.connections = 1;
  client_config.max_batch = 16;  // 48 records need at least three frames
  client_config.connect_timeout = 500ms;
  client_config.request_timeout = 5000ms;
  rpc::RemoteShard shard(server.address(), client_config);
  std::span<const data::Record> records = chaos_dataset().records();

  const fail::ScopedFailpoints guard("serve.engine.score=delay:40ms");
  const std::uint64_t scored_before = fail::hits("serve.engine.score");
  std::vector<std::future<Prediction>> futures;
  for (std::size_t i = 0; i < 48; ++i) {
    futures.push_back(shard.submit(records[i]));
  }
  ASSERT_TRUE(eventually([&]() {
    return fail::hits("serve.engine.score") > scored_before;
  }));
  server.drain(5000ms);

  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Prediction prediction = futures[i].get();  // throws = lost reply
    ASSERT_EQ(prediction.scores, expected_scores(records[i])) << "record "
                                                              << i;
  }
  shard.shutdown();
}

// ---------------------------------------------------------------------
// ChaosBackoff: reconnect discipline against a dead endpoint.
// ---------------------------------------------------------------------

TEST(ChaosBackoff, DeadEndpointDialsAreBackedOff) {
  // A unix path nobody listens on: dials fail instantly, so every dial
  // the client makes is a deliberate decision, cleanly countable.
  const std::string endpoint =
      "unix:/tmp/muffin_chaos_dead_" + std::to_string(::getpid()) + ".sock";
  rpc::RemoteShardConfig config;
  config.connections = 1;
  config.max_batch = 4;
  config.connect_timeout = 200ms;
  config.request_timeout = 500ms;
  config.backoff_initial = 100ms;
  config.backoff_cap = 400ms;
  rpc::RemoteShard shard(endpoint, config);

  // 40 submission waves over ~800 ms. Without backoff each wave's batch
  // would dial the dead endpoint once (~40 dials); the exponential
  // window must collapse that to a handful, while every batch still
  // fails fast instead of queueing behind reconnect attempts.
  std::size_t failed = 0;
  for (std::size_t wave = 0; wave < 40; ++wave) {
    std::future<Prediction> future =
        shard.submit(chaos_dataset().records()[wave]);
    try {
      (void)future.get();
    } catch (const Error&) {
      ++failed;
    }
    std::this_thread::sleep_for(20ms);
  }
  EXPECT_EQ(failed, 40u);  // fail fast, never hang
  EXPECT_GE(shard.connect_attempts(), 2u);   // it kept probing...
  EXPECT_LE(shard.connect_attempts(), 15u);  // ...but far below 1/wave
  // Waves can coalesce into one client batch under scheduler hiccups, so
  // the failed-batch count is a lower bound, not exactly 40.
  EXPECT_GE(shard.consecutive_failures(), 20u);
  shard.shutdown();
}

// ---------------------------------------------------------------------
// ChaosHealth: the monitor under a flapping (50%-loss) probe path.
// ---------------------------------------------------------------------

TEST(ChaosHealth, FlappingProbesNeverOscillateUnbounded) {
  const auto fused = make_fused();
  rpc::ShardServer server0(fused, "127.0.0.1:0");
  rpc::ShardServer server1(fused, "127.0.0.1:0");
  RouterConfig config =
      remote_router({server0.address(), server1.address()},
                    /*max_attempts=*/3);
  config.health.probe_interval = 25ms;
  config.health.failure_threshold = 2;
  config.health.recovery_threshold = 3;

  const std::uint64_t drains_before = counter_value("router.auto_drains");
  const std::uint64_t restores_before =
      counter_value("router.auto_restores");
  ShardRouter router(nullptr, config);
  std::span<const data::Record> records = chaos_dataset().records();
  {
    // Half of all probes fail. The monitor will drain and restore — the
    // hysteresis thresholds exist so it cannot thrash, and the
    // last-active guard means traffic always has somewhere to go.
    const fail::ScopedFailpoints guard("rpc.client.probe=error:0.5");
    const auto deadline = std::chrono::steady_clock::now() + 700ms;
    while (std::chrono::steady_clock::now() < deadline) {
      EXPECT_GE(router.active_count(), 1u);
      std::this_thread::sleep_for(20ms);
    }
  }
  const std::uint64_t drains =
      counter_value("router.auto_drains") - drains_before;
  const std::uint64_t restores =
      counter_value("router.auto_restores") - restores_before;
  // Structural hysteresis bound: a shard must be restored before it can
  // be drained again, so drains can exceed restores by at most one per
  // shard. Unbounded oscillation would blow straight through this.
  EXPECT_LE(drains, restores + 2);

  // Probes healthy again: every shard must come back, and the recovered
  // fleet must serve bit-identically.
  ASSERT_TRUE(eventually([&]() { return router.active_count() == 2; }));
  const std::vector<Prediction> predictions =
      router.predict_batch(records.subspan(0, 40));
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    ASSERT_EQ(predictions[i].scores, expected_scores(records[i]));
  }
  router.shutdown();
  server0.stop();
  server1.stop();
}

}  // namespace
}  // namespace muffin::serve
