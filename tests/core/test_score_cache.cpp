#include "core/score_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <set>
#include <thread>

#include "common/error.h"
#include "common/parallel_for.h"
#include "counting_model.h"
#include "data/generators.h"
#include "obs/metrics.h"
#include "tensor/ops.h"

namespace muffin::core {
namespace {

const data::Dataset& cache_dataset() {
  static const data::Dataset ds = data::synthetic_isic2019(1500, 71);
  return ds;
}

const models::ModelPool& cache_pool() {
  static const models::ModelPool pool =
      models::calibrated_isic_pool(cache_dataset());
  return pool;
}

// Float-pinned tests construct their caches with an explicit
// QuantMode::Off so they stay exact under any MUFFIN_QUANT setting.
ScoreCache float_cache() {
  return ScoreCache(cache_pool(), cache_dataset(), tensor::QuantMode::Off);
}

TEST(ScoreCache, ShapesMatchPoolAndDataset) {
  const ScoreCache cache = float_cache();
  EXPECT_EQ(cache.num_models(), cache_pool().size());
  EXPECT_EQ(cache.num_records(), cache_dataset().size());
  EXPECT_EQ(cache.num_classes(), 8u);
  for (std::size_t m = 0; m < cache.num_models(); ++m) {
    EXPECT_EQ(cache.scores_dense(m).rows(), cache_dataset().size());
    EXPECT_EQ(cache.scores_dense(m).cols(), 8u);
  }
}

TEST(ScoreCache, MatchesDirectModelCalls) {
  const ScoreCache cache = float_cache();
  for (std::size_t m = 0; m < 3; ++m) {
    const tensor::Matrix dense = cache.scores_dense(m);
    for (std::size_t i = 0; i < 100; ++i) {
      const tensor::Vector direct =
          cache_pool().at(m).scores(cache_dataset().record(i));
      const auto cached = dense.row(i);
      for (std::size_t c = 0; c < direct.size(); ++c) {
        EXPECT_DOUBLE_EQ(direct[c], cached[c]);
      }
      EXPECT_EQ(cache.prediction(m, i),
                cache_pool().at(m).predict(cache_dataset().record(i)));
    }
  }
}

TEST(ScoreCache, GatherConcatenatesSelectedModels) {
  const ScoreCache cache = float_cache();
  const std::vector<std::size_t> selected = {2, 5};
  tensor::Vector out(2 * 8);
  cache.gather(selected, 17, out);
  const tensor::Matrix dense2 = cache.scores_dense(2);
  const tensor::Matrix dense5 = cache.scores_dense(5);
  for (std::size_t c = 0; c < 8; ++c) {
    EXPECT_DOUBLE_EQ(out[c], dense2(17, c));
    EXPECT_DOUBLE_EQ(out[8 + c], dense5(17, c));
  }
}

TEST(ScoreCache, GatherRejectsWrongSpanSize) {
  const ScoreCache cache = float_cache();
  const std::vector<std::size_t> selected = {0, 1};
  tensor::Vector wrong(15);
  EXPECT_THROW(cache.gather(selected, 0, wrong), Error);
}

TEST(ScoreCache, ConsensusDetection) {
  const ScoreCache cache = float_cache();
  const std::vector<std::size_t> pair = {0, 1};
  std::size_t agreements = 0;
  for (std::size_t i = 0; i < cache.num_records(); ++i) {
    std::size_t consensus_class = 99;
    const bool agree = cache.consensus(pair, i, consensus_class);
    const bool expected = cache.prediction(0, i) == cache.prediction(1, i);
    EXPECT_EQ(agree, expected);
    if (agree) {
      EXPECT_EQ(consensus_class, cache.prediction(0, i));
      ++agreements;
    }
  }
  // Correlated pool models agree on most records.
  EXPECT_GT(static_cast<double>(agreements) /
                static_cast<double>(cache.num_records()),
            0.6);
}

TEST(ScoreCache, SingleModelConsensusAlwaysTrue) {
  const ScoreCache cache = float_cache();
  const std::vector<std::size_t> solo = {3};
  std::size_t consensus_class = 0;
  EXPECT_TRUE(cache.consensus(solo, 0, consensus_class));
  EXPECT_EQ(consensus_class, cache.prediction(3, 0));
}

TEST(ScoreCache, BoundsChecks) {
  const ScoreCache cache = float_cache();
  EXPECT_THROW((void)cache.scores_dense(cache.num_models()), Error);
  EXPECT_THROW((void)cache.prediction(cache.num_models(), 0), Error);
  EXPECT_THROW((void)cache.prediction(0, cache.num_records()), Error);
  const std::vector<std::size_t> bad_model = {cache.num_models()};
  tensor::Vector out(8);
  EXPECT_THROW(cache.gather(bad_model, 0, out), Error);
  const std::vector<std::size_t> ok = {0};
  EXPECT_THROW(cache.gather(ok, cache.num_records(), out), Error);
}

// --- quantized planes ------------------------------------------------------

TEST(ScoreCacheQuant, GatherDequantizesWithinTolerance) {
  const ScoreCache exact = float_cache();
  for (const tensor::QuantMode mode :
       {tensor::QuantMode::Bf16, tensor::QuantMode::Int8}) {
    const ScoreCache quant(cache_pool(), cache_dataset(), mode);
    EXPECT_EQ(quant.quant_mode(), mode);
    const std::vector<std::size_t> selected = {0, 4};
    tensor::Vector exact_row(2 * 8);
    tensor::Vector quant_row(2 * 8);
    // Scores are probabilities in [0, 1]: bf16 keeps ~3 decimal digits,
    // int8 resolves 1/127 of the per-class max.
    const double tolerance = mode == tensor::QuantMode::Bf16 ? 5e-3 : 1e-2;
    for (std::size_t i = 0; i < 200; ++i) {
      exact.gather(selected, i, exact_row);
      quant.gather(selected, i, quant_row);
      for (std::size_t c = 0; c < exact_row.size(); ++c) {
        EXPECT_NEAR(exact_row[c], quant_row[c], tolerance)
            << "mode " << tensor::quant_mode_name(mode) << " record " << i
            << " column " << c;
      }
    }
  }
}

TEST(ScoreCacheQuant, ScoresDenseMatchesGatherRows) {
  const ScoreCache cache(cache_pool(), cache_dataset(),
                         tensor::QuantMode::Int8);
  const tensor::Matrix dense = cache.scores_dense(1);
  const std::vector<std::size_t> solo = {1};
  tensor::Vector row(8);
  for (std::size_t i = 0; i < 50; ++i) {
    cache.gather(solo, i, row);
    for (std::size_t c = 0; c < 8; ++c) {
      EXPECT_EQ(row[c], dense(i, c));  // same dequantization, same bits
    }
  }
}

TEST(ScoreCacheQuant, PredictionsAndConsensusUnaffectedByQuantization) {
  const ScoreCache exact = float_cache();
  for (const tensor::QuantMode mode :
       {tensor::QuantMode::Bf16, tensor::QuantMode::Int8}) {
    const ScoreCache quant(cache_pool(), cache_dataset(), mode);
    const std::vector<std::size_t> pair = {0, 1};
    for (std::size_t i = 0; i < quant.num_records(); ++i) {
      for (std::size_t m = 0; m < quant.num_models(); ++m) {
        ASSERT_EQ(quant.prediction(m, i), exact.prediction(m, i));
      }
      std::size_t exact_class = 99;
      std::size_t quant_class = 99;
      ASSERT_EQ(quant.consensus(pair, i, quant_class),
                exact.consensus(pair, i, exact_class));
      ASSERT_EQ(quant_class, exact_class);
    }
  }
}

TEST(ScoreCacheQuant, Int8FootprintAtLeastThreeTimesSmaller) {
  ScoreCache exact = float_cache();
  ScoreCache bf16(cache_pool(), cache_dataset(), tensor::QuantMode::Bf16);
  ScoreCache i8(cache_pool(), cache_dataset(), tensor::QuantMode::Int8);
  exact.score_all();
  bf16.score_all();
  i8.score_all();
  ASSERT_GT(exact.footprint_bytes(), 0u);
  const double bf16_ratio = static_cast<double>(exact.footprint_bytes()) /
                            static_cast<double>(bf16.footprint_bytes());
  const double i8_ratio = static_cast<double>(exact.footprint_bytes()) /
                          static_cast<double>(i8.footprint_bytes());
  EXPECT_GE(bf16_ratio, 3.0);
  EXPECT_GE(i8_ratio, 3.0);
  EXPECT_GT(i8_ratio, bf16_ratio);
}

TEST(ScoreCache, AllRowsFootprintIs650BytesPerRecordAt8ClassesInF64) {
  // README: ten f64 planes of 8 classes (64 bytes a row each) plus ten
  // one-byte predictions per record; an all-rows cache has no row index.
  ScoreCache cache = float_cache();
  cache.score_all();
  ASSERT_EQ(cache.num_models(), 10u);
  EXPECT_EQ(cache.footprint_bytes(), 650 * cache_dataset().size());
}

// --- row-subset caches -----------------------------------------------------

/// Every third row, visited in a scrambled order: the held rows need not
/// be sorted or contiguous.
std::vector<std::size_t> subset_rows() {
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < cache_dataset().size(); i += 3) {
    rows.push_back((i * 7) % cache_dataset().size());
  }
  return rows;
}

bool held(std::span<const std::size_t> rows, std::size_t record) {
  return std::find(rows.begin(), rows.end(), record) != rows.end();
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

TEST(ScoreCacheSubset, HeldRowsAreBitIdenticalToTheAllRowsCache) {
  const std::vector<std::size_t> rows = subset_rows();
  ASSERT_EQ(std::set<std::size_t>(rows.begin(), rows.end()).size(),
            rows.size());
  for (const tensor::QuantMode mode :
       {tensor::QuantMode::Off, tensor::QuantMode::Bf16}) {
    const ScoreCache all(cache_pool(), cache_dataset(), mode);
    const ScoreCache subset(cache_pool(), cache_dataset(), rows, mode);
    EXPECT_EQ(subset.num_records(), all.num_records());
    EXPECT_EQ(subset.num_models(), all.num_models());
    EXPECT_EQ(subset.quant_mode(), mode);
    const std::vector<std::size_t> selected = {7, 0, 3};
    tensor::Vector want(3 * 8);
    tensor::Vector got(3 * 8);
    for (const std::size_t i : rows) {
      all.gather(selected, i, want);
      subset.gather(selected, i, got);
      ASSERT_TRUE(same_bits(want, got))
          << tensor::quant_mode_name(mode) << " row " << i;
      for (std::size_t m = 0; m < all.num_models(); ++m) {
        ASSERT_EQ(subset.prediction(m, i), all.prediction(m, i));
      }
      std::size_t want_class = 99;
      std::size_t got_class = 99;
      ASSERT_EQ(subset.consensus(selected, i, got_class),
                all.consensus(selected, i, want_class));
      ASSERT_EQ(got_class, want_class);
    }
  }
}

TEST(ScoreCacheSubset, Int8ScalesAreTakenOverTheHeldRows) {
  const std::vector<std::size_t> rows = subset_rows();
  const ScoreCache exact = float_cache();
  const ScoreCache subset(cache_pool(), cache_dataset(), rows,
                          tensor::QuantMode::Int8);
  for (std::size_t m = 0; m < exact.num_models(); ++m) {
    // The held rows' full-precision scores, in the order they were given,
    // quantized as one matrix: per-column scales over those rows only.
    const tensor::Matrix dense = exact.scores_dense(m);
    tensor::Matrix held_scores(rows.size(), 8);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const auto src = dense.row(rows[k]);
      std::copy(src.begin(), src.end(), held_scores.row(k).begin());
    }
    const tensor::QuantMatrix reference(
        tensor::QuantMode::Int8, rows.size(), 8, held_scores.flat().data(),
        held_scores.stride(), /*col_stride=*/1);
    const std::vector<std::size_t> solo = {m};
    tensor::Vector want(8);
    tensor::Vector got(8);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      reference.decode_row(k, want);
      subset.gather(solo, rows[k], got);
      ASSERT_TRUE(same_bits(want, got)) << "model " << m << " row "
                                                << rows[k];
    }
  }
}

TEST(ScoreCacheSubset, RejectsRowsItDoesNotHold) {
  const std::vector<std::size_t> rows = subset_rows();
  const ScoreCache subset(cache_pool(), cache_dataset(), rows,
                          tensor::QuantMode::Off);
  std::size_t missing = 0;
  while (held(rows, missing)) ++missing;
  const std::vector<std::size_t> selected = {0, 1};
  tensor::Vector out(2 * 8);
  std::size_t consensus_class = 0;
  EXPECT_THROW(subset.gather(selected, missing, out), Error);
  EXPECT_THROW((void)subset.consensus(selected, missing, consensus_class),
               Error);
  EXPECT_THROW((void)subset.prediction(0, missing), Error);
  EXPECT_THROW((void)subset.prediction(0, subset.num_records()), Error);
  EXPECT_THROW(subset.gather(selected, subset.num_records(), out), Error);
  // The planes hold only the subset, so there is no dense matrix to give.
  EXPECT_THROW((void)subset.scores_dense(0), Error);
}

TEST(ScoreCacheSubset, RejectsBadRowLists) {
  const std::vector<std::size_t> duplicate = {4, 9, 4};
  const std::vector<std::size_t> out_of_range = {0, cache_dataset().size()};
  const std::vector<std::size_t> empty;
  EXPECT_THROW(ScoreCache(cache_pool(), cache_dataset(), duplicate), Error);
  EXPECT_THROW(ScoreCache(cache_pool(), cache_dataset(), out_of_range),
               Error);
  // An empty list is an error, never a stand-in for "all rows".
  EXPECT_THROW(ScoreCache(cache_pool(), cache_dataset(), empty), Error);
}

TEST(ScoreCacheSubset, MovedCacheKeepsItsIndex) {
  const std::vector<std::size_t> rows = {40, 2, 17};
  const ScoreCache all = float_cache();
  ScoreCache original(cache_pool(), cache_dataset(), rows,
                      tensor::QuantMode::Off);
  ScoreCache moved = std::move(original);
  ScoreCache assigned(cache_pool(), cache_dataset(), tensor::QuantMode::Off);
  assigned = std::move(moved);
  const std::vector<std::size_t> solo = {5};
  tensor::Vector want(8);
  tensor::Vector got(8);
  for (const std::size_t i : rows) {
    all.gather(solo, i, want);
    assigned.gather(solo, i, got);
    EXPECT_TRUE(same_bits(want, got)) << "row " << i;
  }
  EXPECT_THROW(assigned.gather(solo, 3, got), Error);
  EXPECT_THROW((void)assigned.scores_dense(0), Error);
}

TEST(ScoreCacheSubset, FootprintCountsHeldRowsAndTheIndex) {
  const std::vector<std::size_t> rows = subset_rows();
  ScoreCache subset(cache_pool(), cache_dataset(), rows,
                    tensor::QuantMode::Off);
  subset.score_all();
  // Per held row: 10 planes of 8 f64 scores and 10 prediction bytes; the
  // index is 4 bytes per dataset row.
  EXPECT_EQ(subset.footprint_bytes(),
            650 * rows.size() + 4 * cache_dataset().size());
}

TEST(ScoreCacheQuant, FootprintGaugeTracksLifetimes) {
  obs::Gauge& gauge = obs::registry().gauge("core.score_cache_bytes");
  const std::int64_t before = gauge.value();
  {
    ScoreCache cache(cache_pool(), cache_dataset(), tensor::QuantMode::Int8);
    cache.score_all();
    EXPECT_EQ(gauge.value() - before,
              static_cast<std::int64_t>(cache.footprint_bytes()));
    // Moving transfers the accounting without double counting.
    const ScoreCache moved = std::move(cache);
    EXPECT_EQ(gauge.value() - before,
              static_cast<std::int64_t>(moved.footprint_bytes()));
    ScoreCache subset(cache_pool(), cache_dataset(), subset_rows(),
                      tensor::QuantMode::Int8);
    subset.score_all();
    EXPECT_EQ(gauge.value() - before,
              static_cast<std::int64_t>(moved.footprint_bytes() +
                                        subset.footprint_bytes()));
  }
  EXPECT_EQ(gauge.value(), before);
  {
    // A partly scored cache: the row index from the start, then one
    // column's int8 payload, 8 scales and prediction bytes on its first
    // read, and nothing more on later reads.
    const std::vector<std::size_t> rows = subset_rows();
    const ScoreCache partial(cache_pool(), cache_dataset(), rows,
                             tensor::QuantMode::Int8);
    const std::int64_t index = 4 * cache_dataset().size();
    const std::int64_t column = 8 * rows.size() + 8 * 8 + rows.size();
    EXPECT_EQ(gauge.value() - before, index);
    (void)partial.prediction(6, rows[0]);
    EXPECT_EQ(gauge.value() - before, index + column);
    (void)partial.prediction(6, rows[1]);
    EXPECT_EQ(gauge.value() - before, index + column);
    EXPECT_EQ(static_cast<std::int64_t>(partial.footprint_bytes()),
              index + column);
  }
  EXPECT_EQ(gauge.value(), before);
}

// --- columns scored on first read -------------------------------------------

/// Eager oracle of one column: one score_batch over the held rows, argmax
/// before quantization, then the QuantMatrix encode.
struct EagerColumn {
  tensor::QuantMatrix scores;
  std::vector<std::size_t> predictions;
};

std::vector<EagerColumn> eager_columns(std::span<const data::Record> held,
                                       tensor::QuantMode mode) {
  std::vector<EagerColumn> columns;
  for (std::size_t m = 0; m < cache_pool().size(); ++m) {
    const tensor::Matrix scores = cache_pool().at(m).score_batch(held);
    EagerColumn column;
    for (std::size_t i = 0; i < scores.rows(); ++i) {
      column.predictions.push_back(tensor::argmax(scores.row(i)));
    }
    column.scores =
        tensor::QuantMatrix(mode, scores.rows(), scores.cols(),
                            scores.flat().data(), scores.stride(), 1);
    columns.push_back(std::move(column));
  }
  return columns;
}

/// Every held row of every column of `cache` against the oracle, bit for
/// bit; `rows[k]` is the dataset row in oracle row k.
void expect_matches_oracle(const ScoreCache& cache,
                           std::span<const std::size_t> rows,
                           const std::vector<EagerColumn>& oracle) {
  tensor::Vector want(8);
  tensor::Vector got(8);
  for (std::size_t m = 0; m < oracle.size(); ++m) {
    const std::vector<std::size_t> solo = {m};
    for (std::size_t k = 0; k < rows.size(); ++k) {
      oracle[m].scores.decode_row(k, want);
      cache.gather(solo, rows[k], got);
      ASSERT_TRUE(same_bits(want, got)) << "model " << m << " row " << rows[k];
      ASSERT_EQ(cache.prediction(m, rows[k]), oracle[m].predictions[k])
          << "model " << m << " row " << rows[k];
    }
  }
}

std::size_t oracle_bytes(const std::vector<EagerColumn>& oracle) {
  std::size_t bytes = 0;
  for (const EagerColumn& column : oracle) {
    bytes += column.scores.footprint_bytes() + column.predictions.size();
  }
  return bytes;
}

std::vector<std::size_t> all_rows() {
  std::vector<std::size_t> rows(cache_dataset().size());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  return rows;
}

std::vector<data::Record> held_records(std::span<const std::size_t> rows) {
  std::vector<data::Record> held;
  for (const std::size_t row : rows) held.push_back(cache_dataset().record(row));
  return held;
}

/// One reader's pass over every column of `cache`, reader `t` through
/// its own accessor, all readers in the same column order so that first
/// reads collide.
void read_every_column(const ScoreCache& cache, std::size_t t,
                       std::size_t row, bool all_rows_cache) {
  tensor::Vector out(8);
  for (std::size_t m = 0; m < cache.num_models(); ++m) {
    const std::vector<std::size_t> solo = {m};
    std::size_t consensus_class = 0;
    switch (t % 4) {
      case 0:
        cache.gather(solo, row, out);
        break;
      case 1:
        (void)cache.consensus(solo, row, consensus_class);
        break;
      case 2:
        (void)cache.prediction(m, row);
        break;
      default:
        if (all_rows_cache) {
          (void)cache.scores_dense(m);
        } else {
          cache.gather(solo, row, out);
        }
    }
  }
}

const tensor::QuantMode kModes[] = {tensor::QuantMode::Off,
                                    tensor::QuantMode::Bf16,
                                    tensor::QuantMode::Int8};

TEST(ScoreCacheLazy, FreshCacheHasScoredNothing) {
  CountingPool counting(cache_pool());
  const ScoreCache all(counting.pool, cache_dataset(), tensor::QuantMode::Off);
  const ScoreCache subset(counting.pool, cache_dataset(), subset_rows(),
                          tensor::QuantMode::Off);
  EXPECT_EQ(counting.calls(), std::vector<int>(10, 0));
  EXPECT_EQ(all.footprint_bytes(), 0u);
  EXPECT_EQ(subset.footprint_bytes(), 4 * cache_dataset().size());
}

TEST(ScoreCacheLazy, ReadsScoreOnlyTheColumnsTheyRead) {
  CountingPool counting(cache_pool());
  ScoreCache cache(counting.pool, cache_dataset(), tensor::QuantMode::Off);
  const std::vector<std::size_t> pair = {2, 5};
  tensor::Vector out(2 * 8);
  for (std::size_t i = 0; i < 50; ++i) {
    cache.gather(pair, i, out);
    std::size_t consensus_class = 0;
    (void)cache.consensus(pair, i, consensus_class);
    (void)cache.prediction(2, i);
    (void)cache.prediction(5, i);
  }
  (void)cache.scores_dense(2);
  (void)cache.scores_dense(5);
  const std::vector<int> two = {0, 0, 1, 0, 0, 1, 0, 0, 0, 0};
  EXPECT_EQ(counting.calls(), two);
  EXPECT_EQ(cache.footprint_bytes(), 2 * 65 * cache_dataset().size());

  cache.score_all();
  EXPECT_EQ(counting.calls(), std::vector<int>(10, 1));
  EXPECT_EQ(cache.footprint_bytes(), 650 * cache_dataset().size());
  cache.score_all();
  EXPECT_EQ(counting.calls(), std::vector<int>(10, 1));
}

TEST(ScoreCacheLazy, ConcurrentFirstReadsMatchTheEagerOracle) {
  constexpr std::size_t kReaders = 8;
  const std::vector<std::size_t> everything = all_rows();
  const std::vector<std::size_t> subset = subset_rows();
  for (const tensor::QuantMode mode : kModes) {
    for (const bool all_rows_cache : {true, false}) {
      const std::span<const std::size_t> rows =
          all_rows_cache ? std::span<const std::size_t>(everything)
                         : std::span<const std::size_t>(subset);
      const std::vector<EagerColumn> oracle =
          eager_columns(held_records(rows), mode);
      CountingPool counting(cache_pool());
      const ScoreCache cache =
          all_rows_cache
              ? ScoreCache(counting.pool, cache_dataset(), mode)
              : ScoreCache(counting.pool, cache_dataset(), subset, mode);
      std::atomic<bool> go{false};
      std::vector<std::thread> readers;
      for (std::size_t t = 0; t < kReaders; ++t) {
        readers.emplace_back([&, t] {
          while (!go.load()) std::this_thread::yield();
          read_every_column(cache, t, rows[t], all_rows_cache);
        });
      }
      go.store(true);
      for (std::thread& reader : readers) reader.join();

      const std::string label = std::string(tensor::quant_mode_name(mode)) +
                                (all_rows_cache ? " all rows" : " subset");
      for (const int calls : counting.calls()) {
        EXPECT_GE(calls, 1) << label;
        EXPECT_LE(calls, static_cast<int>(kReaders)) << label;
      }
      // Only each column's winner counts its bytes.
      const std::size_t index =
          all_rows_cache ? 0 : 4 * cache_dataset().size();
      EXPECT_EQ(cache.footprint_bytes(), index + oracle_bytes(oracle))
          << label;
      expect_matches_oracle(cache, rows, oracle);
    }
  }
}

TEST(ScoreCacheLazy, CallerRacingPoolJobsFinishesAndMatchesTheOracle) {
  // The caller's first read splits its rows over the shared pool and
  // waits for its blocks while every pool worker reads the same columns.
  // A reader that waited on another's column would never finish here.
  const std::size_t workers = common::global_pool_size();
  const std::vector<std::size_t> rows = all_rows();
  for (const tensor::QuantMode mode : kModes) {
    const std::vector<EagerColumn> oracle =
        eager_columns(cache_dataset().records(), mode);
    CountingPool counting(cache_pool());
    const ScoreCache cache(counting.pool, cache_dataset(), mode);
    std::atomic<bool> go{false};
    std::vector<std::future<void>> jobs;
    for (std::size_t t = 1; t <= workers; ++t) {
      jobs.push_back(common::global_pool().submit([&, t] {
        while (!go.load()) std::this_thread::yield();
        read_every_column(cache, t, rows[t], true);
      }));
    }
    go.store(true);
    read_every_column(cache, 0, rows[0], true);
    for (std::future<void>& job : jobs) job.get();

    EXPECT_EQ(cache.footprint_bytes(), oracle_bytes(oracle))
        << tensor::quant_mode_name(mode);
    expect_matches_oracle(cache, rows, oracle);
  }
}

TEST(ScoreCacheLazy, FailedScoringRethrowsAndTheNextReadScores) {
  CountingPool counting(cache_pool());
  const ScoreCache cache(counting.pool, cache_dataset(),
                         tensor::QuantMode::Off);
  const ScoreCache reference = float_cache();
  counting.models[3]->fail_next(1);
  const std::vector<std::size_t> solo = {3};
  tensor::Vector want(8);
  tensor::Vector got(8);
  EXPECT_THROW(cache.gather(solo, 10, got), Error);
  EXPECT_EQ(cache.footprint_bytes(), 0u);
  cache.gather(solo, 10, got);
  reference.gather(solo, 10, want);
  EXPECT_TRUE(same_bits(want, got));
  EXPECT_EQ(counting.models[3]->batch_calls(), 2);
  EXPECT_EQ(cache.footprint_bytes(), 65 * cache_dataset().size());

  // A failed score_all() keeps a row-subset cache's records, so the next
  // score_all() can finish the columns it left.
  const std::vector<std::size_t> rows = subset_rows();
  ScoreCache subset(counting.pool, cache_dataset(), rows,
                    tensor::QuantMode::Off);
  counting.models[7]->fail_next(1);
  EXPECT_THROW(subset.score_all(), Error);
  subset.score_all();
  expect_matches_oracle(subset, rows,
                        eager_columns(held_records(rows),
                                      tensor::QuantMode::Off));
}

}  // namespace
}  // namespace muffin::core
