// Wire-format suite for the cross-process shard tier (serve/rpc/wire.h).
//
// The contract under test:
//  1. Round trips are bit-exact for record batches and prediction
//     batches across batch sizes {1, 7, max_batch} — doubles travel as
//     IEEE-754 bit patterns, so remote scoring can be bit-identical.
//  2. Malformed frames fail CLEANLY: truncated headers/payloads, bad
//     magic, wrong version, oversized or lying length fields all throw
//     muffin::Error before any over-read or over-allocation.
//  3. Decoding never trusts the peer: every truncation point of a valid
//     frame and a fuzz battery of random payloads must throw or decode,
//     never crash or over-read.
#include "serve/rpc/wire.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.h"
#include "common/hash.h"
#include "data/serialize.h"

namespace muffin::serve::rpc {
namespace {

data::Record make_record(std::uint64_t uid, std::size_t width) {
  data::Record record;
  record.uid = uid;
  record.label = uid % 9;
  record.groups = {uid % 3, uid % 5, uid % 7};
  record.difficulty = -1.25 + 0.125 * static_cast<double>(uid % 32);
  record.features.reserve(width);
  std::uint64_t state = uid * 977 + 13;
  for (std::size_t f = 0; f < width; ++f) {
    // Arbitrary bit patterns, including denormal-ish and negative values.
    record.features.push_back(
        static_cast<double>(static_cast<std::int64_t>(
            splitmix64_next(state))) /
        1e12);
  }
  return record;
}

std::vector<data::Record> make_batch(std::size_t n) {
  std::vector<data::Record> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    records.push_back(make_record(1000 + i, 16 + i % 5));
  }
  return records;
}

Prediction make_prediction(std::size_t seed, std::size_t num_classes) {
  Prediction prediction;
  prediction.scores.resize(num_classes);
  double sum = 0.0;
  std::uint64_t state = seed * 31 + 7;
  for (std::size_t c = 0; c < num_classes; ++c) {
    prediction.scores[c] =
        static_cast<double>(splitmix64_next(state) >> 40) + 1.0;
    sum += prediction.scores[c];
  }
  for (double& score : prediction.scores) score /= sum;
  prediction.predicted = seed % num_classes;
  prediction.consensus = seed % 2 == 0;
  prediction.cached = seed % 3 == 0;
  // Rows of one response can straddle an engine hot-swap across
  // micro-batches, so the version is per-row on the wire.
  prediction.model_version = 100 + seed;
  return prediction;
}

bool record_equal(const data::Record& a, const data::Record& b) {
  return a.uid == b.uid && a.label == b.label && a.groups == b.groups &&
         // Bit-exact comparison, deliberately not an epsilon.
         std::bit_cast<std::uint64_t>(a.difficulty) ==
             std::bit_cast<std::uint64_t>(b.difficulty) &&
         a.features == b.features;
}

TEST(Wire, HeaderRoundTrip) {
  std::vector<std::uint8_t> bytes;
  encode_header(bytes, MsgType::ScoreRequest, /*seq=*/0x1234'5678'9abc'def0ULL,
                /*payload_len=*/4096);
  ASSERT_EQ(bytes.size(), kHeaderBytes);
  const FrameHeader header = decode_header(bytes);
  EXPECT_EQ(header.type, MsgType::ScoreRequest);
  EXPECT_EQ(header.seq, 0x1234'5678'9abc'def0ULL);
  EXPECT_EQ(header.payload_len, 4096u);
}

TEST(Wire, HeaderIsExplicitLittleEndian) {
  // The byte layout is part of the protocol: a frame written by any
  // build must parse in any other. Pin the first bytes literally.
  std::vector<std::uint8_t> bytes;
  encode_header(bytes, MsgType::HealthProbe, /*seq=*/2, /*payload_len=*/1);
  // magic "MUFN" = 0x4E46554D little-endian -> bytes 4D 55 46 4E.
  EXPECT_EQ(bytes[0], 0x4D);
  EXPECT_EQ(bytes[1], 0x55);
  EXPECT_EQ(bytes[2], 0x46);
  EXPECT_EQ(bytes[3], 0x4E);
  EXPECT_EQ(bytes[4], kVersion);  // u16 version, low byte first
  EXPECT_EQ(bytes[5], 0x00);
  EXPECT_EQ(bytes[6], static_cast<std::uint8_t>(MsgType::HealthProbe));
  EXPECT_EQ(bytes[8], 2);   // seq low byte
  EXPECT_EQ(bytes[16], 1);  // payload_len low byte
}

TEST(Wire, HeaderRejectsBadMagicVersionTypeAndSize) {
  std::vector<std::uint8_t> good;
  encode_header(good, MsgType::ScoreRequest, 1, 10);

  std::vector<std::uint8_t> bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW((void)decode_header(bad_magic), Error);

  std::vector<std::uint8_t> bad_version = good;
  bad_version[4] = 0xEE;
  EXPECT_THROW((void)decode_header(bad_version), Error);

  std::vector<std::uint8_t> bad_type = good;
  bad_type[6] = 99;
  EXPECT_THROW((void)decode_header(bad_type), Error);

  // A length field larger than the ceiling must be rejected up front —
  // that is what stops a corrupt frame from driving a huge allocation.
  std::vector<std::uint8_t> oversized;
  encode_header(oversized, MsgType::ScoreRequest, 1,
                kDefaultMaxFrameBytes + 1);
  EXPECT_THROW((void)decode_header(oversized), Error);
  EXPECT_NO_THROW((void)decode_header(oversized, kDefaultMaxFrameBytes + 1));

  // Truncated header (wrong size) is rejected outright.
  std::vector<std::uint8_t> truncated(good.begin(), good.end() - 1);
  EXPECT_THROW((void)decode_header(truncated), Error);
}

TEST(Wire, RecordRoundTripIsBitExact) {
  const data::Record original = make_record(42, 20);
  std::vector<std::uint8_t> bytes;
  data::encode_record(original, bytes);
  common::ByteReader reader(bytes);
  const data::Record decoded = data::decode_record(reader);
  EXPECT_TRUE(reader.done());
  EXPECT_TRUE(record_equal(original, decoded));
}

TEST(Wire, ScoreRequestRoundTripAcrossBatchSizes) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                              std::size_t{32}}) {
    const std::vector<data::Record> batch = make_batch(n);
    const std::vector<std::uint8_t> frame = encode_score_request(77, batch);
    const FrameHeader header =
        decode_header({frame.data(), kHeaderBytes});
    EXPECT_EQ(header.type, MsgType::ScoreRequest);
    EXPECT_EQ(header.seq, 77u);
    EXPECT_EQ(header.payload_len, frame.size() - kHeaderBytes);
    const std::vector<data::Record> decoded = decode_score_request(
        {frame.data() + kHeaderBytes, frame.size() - kHeaderBytes});
    ASSERT_EQ(decoded.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(record_equal(batch[i], decoded[i])) << "record " << i;
    }
  }
}

TEST(Wire, ScoreResponseRoundTripAcrossBatchSizes) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                              std::size_t{32}}) {
    std::vector<Prediction> predictions;
    predictions.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      predictions.push_back(make_prediction(i, 8));
    }
    const std::vector<std::uint8_t> frame =
        encode_score_response(31, predictions);
    const std::vector<Prediction> decoded = decode_score_response(
        {frame.data() + kHeaderBytes, frame.size() - kHeaderBytes});
    ASSERT_EQ(decoded.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(decoded[i].scores, predictions[i].scores) << "row " << i;
      EXPECT_EQ(decoded[i].predicted, predictions[i].predicted);
      EXPECT_EQ(decoded[i].consensus, predictions[i].consensus);
      EXPECT_EQ(decoded[i].cached, predictions[i].cached);
      EXPECT_EQ(decoded[i].model_version, predictions[i].model_version);
    }
  }
}

TEST(Wire, ReloadRoundTrip) {
  const std::string path = "/srv/models/head-v7.mufa";
  const std::vector<std::uint8_t> frame = encode_reload(44, path);
  const FrameHeader header = decode_header({frame.data(), kHeaderBytes});
  EXPECT_EQ(header.type, MsgType::Reload);
  EXPECT_EQ(header.seq, 44u);
  EXPECT_EQ(decode_reload({frame.data() + kHeaderBytes,
                           frame.size() - kHeaderBytes}),
            path);
}

TEST(Wire, ReloadRejectsHostilePayloads) {
  // An empty path is refused at encode time — there is nothing to load.
  EXPECT_THROW((void)encode_reload(1, ""), Error);

  const std::vector<std::uint8_t> frame = encode_reload(1, "head.mufa");
  const std::span<const std::uint8_t> payload{
      frame.data() + kHeaderBytes, frame.size() - kHeaderBytes};
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_THROW((void)decode_reload(payload.subspan(0, cut)), Error)
        << "cut at " << cut;
  }
  // Trailing garbage after the path is rejected.
  std::vector<std::uint8_t> trailing(payload.begin(), payload.end());
  trailing.push_back(0x00);
  EXPECT_THROW((void)decode_reload(trailing), Error);
  // A forged zero-length path is rejected by the decoder too.
  std::vector<std::uint8_t> empty_path;
  common::put_u32(empty_path, 0);
  EXPECT_THROW((void)decode_reload(empty_path), Error);
  // A length field lying past the payload must not over-read.
  std::vector<std::uint8_t> lying;
  common::put_u32(lying, 0xFFFF'FFFFU);
  lying.push_back('x');
  EXPECT_THROW((void)decode_reload(lying), Error);
}

TEST(Wire, ReloadAckRoundTrip) {
  const std::vector<std::uint8_t> frame =
      encode_reload_ack(45, /*model_version=*/0x0102'0304'0506'0708ULL);
  const FrameHeader header = decode_header({frame.data(), kHeaderBytes});
  EXPECT_EQ(header.type, MsgType::ReloadAck);
  EXPECT_EQ(header.seq, 45u);
  const std::span<const std::uint8_t> payload{
      frame.data() + kHeaderBytes, frame.size() - kHeaderBytes};
  EXPECT_EQ(decode_reload_ack(payload), 0x0102'0304'0506'0708ULL);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_THROW((void)decode_reload_ack(payload.subspan(0, cut)), Error)
        << "cut at " << cut;
  }
  std::vector<std::uint8_t> trailing(payload.begin(), payload.end());
  trailing.push_back(0xAB);
  EXPECT_THROW((void)decode_reload_ack(trailing), Error);
}

TEST(Wire, EmptyBatchesRoundTrip) {
  const std::vector<std::uint8_t> request =
      encode_score_request(5, std::span<const data::Record>{});
  EXPECT_TRUE(decode_score_request(
                  {request.data() + kHeaderBytes,
                   request.size() - kHeaderBytes})
                  .empty());
  const std::vector<std::uint8_t> response = encode_score_response(5, {});
  EXPECT_TRUE(decode_score_response(
                  {response.data() + kHeaderBytes,
                   response.size() - kHeaderBytes})
                  .empty());
}

TEST(Wire, ErrorRoundTrip) {
  const std::vector<std::uint8_t> frame = encode_error(9, "engine stopped");
  EXPECT_EQ(decode_error({frame.data() + kHeaderBytes,
                          frame.size() - kHeaderBytes}),
            "engine stopped");
}

TEST(Wire, ControlFramesHaveEmptyPayload) {
  const std::vector<std::uint8_t> probe =
      encode_control(MsgType::HealthProbe, 3);
  EXPECT_EQ(probe.size(), kHeaderBytes);
  const FrameHeader header = decode_header({probe.data(), kHeaderBytes});
  EXPECT_EQ(header.type, MsgType::HealthProbe);
  EXPECT_EQ(header.payload_len, 0u);
  EXPECT_THROW((void)encode_control(MsgType::ScoreRequest, 3), Error);
}

TEST(Wire, TruncatedRequestPayloadThrowsAtEveryCut) {
  const std::vector<data::Record> batch = make_batch(7);
  const std::vector<std::uint8_t> frame = encode_score_request(1, batch);
  const std::span<const std::uint8_t> payload{
      frame.data() + kHeaderBytes, frame.size() - kHeaderBytes};
  // Every strict prefix must throw — no cut point may decode (the count
  // field makes partial batches detectable) and none may over-read.
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_THROW((void)decode_score_request(payload.subspan(0, cut)), Error)
        << "cut at " << cut;
  }
  EXPECT_NO_THROW((void)decode_score_request(payload));
}

TEST(Wire, TruncatedResponsePayloadThrowsAtEveryCut) {
  std::vector<Prediction> predictions = {make_prediction(1, 8),
                                         make_prediction(2, 8),
                                         make_prediction(3, 8)};
  const std::vector<std::uint8_t> frame =
      encode_score_response(1, predictions);
  const std::span<const std::uint8_t> payload{
      frame.data() + kHeaderBytes, frame.size() - kHeaderBytes};
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_THROW((void)decode_score_response(payload.subspan(0, cut)), Error)
        << "cut at " << cut;
  }
}

TEST(Wire, TrailingGarbageIsRejected) {
  const std::vector<data::Record> batch = make_batch(2);
  std::vector<std::uint8_t> frame = encode_score_request(1, batch);
  frame.push_back(0xAB);
  EXPECT_THROW((void)decode_score_request(
                   {frame.data() + kHeaderBytes,
                    frame.size() - kHeaderBytes}),
               Error);
}

TEST(Wire, LyingCountFieldsFailBeforeAllocation) {
  // A count field claiming 2^32-1 records/features in a tiny payload
  // must be rejected by the remaining-bytes check, not by an OOM.
  std::vector<std::uint8_t> payload;
  common::put_u32(payload, 0xFFFF'FFFFU);  // record count
  EXPECT_THROW((void)decode_score_request(payload), Error);

  payload.clear();
  common::put_u32(payload, 1);             // one record…
  common::put_u64(payload, 7);             // uid
  common::put_u64(payload, 0);             // label
  common::put_u32(payload, 0xFFFF'FFFFU);  // …with 4 billion groups
  EXPECT_THROW((void)decode_score_request(payload), Error);

  payload.clear();
  common::put_u32(payload, 0xFFFF'FFFFU);  // response rows
  common::put_u32(payload, 0xFFFF'FFFFU);  // num_classes
  EXPECT_THROW((void)decode_score_response(payload), Error);
}

TEST(Wire, FuzzedPayloadsNeverCrash) {
  // Deterministic fuzz battery: random bytes through every decoder must
  // either decode or throw muffin::Error — never crash, hang, or read
  // out of bounds (ASan/TSan builds make violations loud).
  std::uint64_t state = 0xF00DF00DULL;
  for (std::size_t round = 0; round < 2000; ++round) {
    const std::size_t size = splitmix64_next(state) % 192;
    std::vector<std::uint8_t> payload(size);
    for (std::uint8_t& byte : payload) {
      byte = static_cast<std::uint8_t>(splitmix64_next(state));
    }
    try {
      (void)decode_score_request(payload);
    } catch (const Error&) {
    }
    try {
      (void)decode_score_response(payload);
    } catch (const Error&) {
    }
    try {
      (void)decode_error(payload);
    } catch (const Error&) {
    }
    std::vector<std::uint8_t> header(payload);
    header.resize(kHeaderBytes);
    try {
      (void)decode_header(header);
    } catch (const Error&) {
    }
  }
}

StatsReport make_stats_report() {
  StatsReport report;
  report.cache_entries = 1415;
  report.engine.counters = {{"engine.batches", 678},
                            {"engine.cache_hits", 910},
                            {"engine.consensus_short_circuits", 11},
                            {"engine.head_evaluations", 1213},
                            {"engine.requests", 12345}};
  obs::HistogramSnapshot latency;
  latency.name = "engine.latency_us";
  latency.bounds = {1.0, 2.0, 4.0};
  latency.counts = {1, 2, 0, 2};  // per-bucket, last is +Inf
  latency.count = 5;
  latency.sum = 123.5;
  report.engine.histograms = {latency};
  report.process.counters = {{"engine.requests", 12345},
                             {"rpc.server.frames_received", 42}};
  report.process.gauges = {{"engine.batcher.depth", -3},
                           {"rpc.server.open_connections", 2}};
  obs::HistogramSnapshot batch_size;
  batch_size.name = "engine.batch_size";
  batch_size.bounds = {1.0, 8.0, 32.0};
  batch_size.counts = {4, 3, 2, 1};
  batch_size.count = 10;
  batch_size.sum = 161.5;
  report.process.histograms = {batch_size};
  return report;
}

StatsReport round_trip(const StatsReport& report) {
  const std::vector<std::uint8_t> frame = encode_stats_response(1, report);
  return decode_stats_response(
      {frame.data() + kHeaderBytes, frame.size() - kHeaderBytes});
}

TEST(Wire, StatsRequestIsAnEmptyPayloadControlFrame) {
  const std::vector<std::uint8_t> frame = encode_stats_request(21);
  EXPECT_EQ(frame.size(), kHeaderBytes);
  const FrameHeader header = decode_header({frame.data(), kHeaderBytes});
  EXPECT_EQ(header.type, MsgType::StatsRequest);
  EXPECT_EQ(header.seq, 21u);
  EXPECT_EQ(header.payload_len, 0u);
}

TEST(Wire, StatsResponseRoundTripsEveryField) {
  const StatsReport report = make_stats_report();
  const std::vector<std::uint8_t> frame = encode_stats_response(77, report);
  const FrameHeader header = decode_header({frame.data(), kHeaderBytes});
  EXPECT_EQ(header.type, MsgType::StatsResponse);
  EXPECT_EQ(header.seq, 77u);
  const StatsReport decoded = decode_stats_response(
      {frame.data() + kHeaderBytes, frame.size() - kHeaderBytes});
  EXPECT_EQ(decoded.cache_entries, report.cache_entries);
  // The JSON exposition renders every name, value, bound and count.
  EXPECT_EQ(decoded.engine.to_json(), report.engine.to_json());
  EXPECT_EQ(decoded.process.to_json(), report.process.to_json());
  EXPECT_EQ(decoded.process.gauge_value("engine.batcher.depth"), -3);
  EXPECT_EQ(decoded.engine.histograms[0].count, 5u);
  EXPECT_DOUBLE_EQ(decoded.engine.histograms[0].sum, 123.5);
}

TEST(Wire, EmptyStatsResponseRoundTrips) {
  const StatsReport decoded = round_trip(StatsReport{});
  EXPECT_EQ(decoded.cache_entries, 0u);
  EXPECT_TRUE(decoded.engine.counters.empty());
  EXPECT_TRUE(decoded.engine.histograms.empty());
  EXPECT_TRUE(decoded.process.counters.empty());
}

TEST(Wire, TruncatedStatsResponseThrowsAtEveryCut) {
  const std::vector<std::uint8_t> frame =
      encode_stats_response(1, make_stats_report());
  const std::span<const std::uint8_t> payload{
      frame.data() + kHeaderBytes, frame.size() - kHeaderBytes};
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_THROW((void)decode_stats_response(payload.subspan(0, cut)), Error)
        << "cut at " << cut;
  }
  EXPECT_NO_THROW((void)decode_stats_response(payload));
}

TEST(Wire, StatsResponseRejectsBadHistogramBounds) {
  // Percentiles binary-search and merges compare bounds, so a decoded
  // histogram must have finite, strictly increasing bounds.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& bounds :
       std::vector<std::vector<double>>{{1.0, 1.0, 4.0},
                                        {4.0, 2.0, 1.0},
                                        {1.0, nan, 4.0},
                                        {1.0, 2.0, inf}}) {
    StatsReport report = make_stats_report();
    report.engine.histograms[0].bounds = bounds;
    EXPECT_THROW((void)round_trip(report), Error);
  }
}

TEST(Wire, StatsResponseRejectsHistogramCountMismatch) {
  // The count must equal the sum of the bucket counts: a percentile rank
  // taken from a lying count would walk past the last bucket.
  StatsReport inflated = make_stats_report();
  inflated.engine.histograms[0].count = 6;  // buckets sum to 5
  EXPECT_THROW((void)round_trip(inflated), Error);
  StatsReport deflated = make_stats_report();
  deflated.process.histograms[0].count = 9;  // buckets sum to 10
  EXPECT_THROW((void)round_trip(deflated), Error);
  // Bucket counts whose sum overflows u64 cannot match any count.
  StatsReport overflow = make_stats_report();
  overflow.engine.histograms[0].counts = {
      std::numeric_limits<std::uint64_t>::max(), 2, 0, 0};
  overflow.engine.histograms[0].count = 1;
  EXPECT_THROW((void)round_trip(overflow), Error);
}

TEST(Wire, DecodedSnapshotsMergeOnlyWithMatchingBounds) {
  // Merging decoded fleet views adds same-named histograms bucket by
  // bucket; the same name with different bounds is a conflict.
  const StatsReport a = round_trip(make_stats_report());
  obs::MetricsSnapshot merged = a.engine;
  merged.merge(round_trip(make_stats_report()).engine);
  EXPECT_EQ(merged.counter_value("engine.requests"), 2 * 12345u);
  EXPECT_EQ(merged.find_histogram("engine.latency_us")->count, 10u);

  StatsReport other = make_stats_report();
  other.engine.histograms[0].bounds = {1.0, 2.0, 8.0};
  const StatsReport b = round_trip(other);
  obs::MetricsSnapshot conflicted = a.engine;
  EXPECT_THROW(conflicted.merge(b.engine), Error);
}

TEST(Wire, LyingStatsCountsFailBeforeAllocation) {
  // Hand-built payloads: a valid prefix, then a metrics section claiming
  // 2^32-1 entries in a few bytes.
  std::vector<std::uint8_t> payload;
  common::put_u64(payload, 1);             // cache_entries
  common::put_u32(payload, 0xFFFF'FFFFU);  // counter count
  EXPECT_THROW((void)decode_stats_response(payload), Error);

  // One histogram whose bound count claims far more than the payload.
  payload.clear();
  common::put_u64(payload, 1);             // cache_entries
  common::put_u32(payload, 0);             // no counters
  common::put_u32(payload, 0);             // no gauges
  common::put_u32(payload, 1);             // one histogram
  common::put_u16(payload, 1);             // name length
  payload.push_back('h');
  common::put_u32(payload, 0xFFFF'FFFFU);  // bound count
  for (int i = 0; i < 8; ++i) common::put_u64(payload, 0);
  EXPECT_THROW((void)decode_stats_response(payload), Error);
}

TEST(Wire, FuzzedStatsPayloadsNeverCrash) {
  std::uint64_t state = 0x57A7557A75ULL;
  for (std::size_t round = 0; round < 2000; ++round) {
    const std::size_t size = splitmix64_next(state) % 256;
    std::vector<std::uint8_t> payload(size);
    for (std::uint8_t& byte : payload) {
      byte = static_cast<std::uint8_t>(splitmix64_next(state));
    }
    try {
      (void)decode_stats_response(payload);
    } catch (const Error&) {
    }
  }
  // Bit-flip mutations of a valid stats frame, same rule.
  const std::vector<std::uint8_t> frame =
      encode_stats_response(1, make_stats_report());
  for (std::size_t round = 0; round < 500; ++round) {
    std::vector<std::uint8_t> corrupt = frame;
    const std::size_t at = splitmix64_next(state) % corrupt.size();
    corrupt[at] ^= static_cast<std::uint8_t>(1 + splitmix64_next(state) % 255);
    try {
      (void)decode_stats_response(
          {corrupt.data() + kHeaderBytes, corrupt.size() - kHeaderBytes});
    } catch (const Error&) {
    }
  }
}

TEST(Wire, FuzzedMutationsOfValidFramesNeverCrash) {
  // Bit-flip fuzz: corrupt one byte of a real frame at a time; decoding
  // must throw or succeed, never misbehave.
  const std::vector<data::Record> batch = make_batch(3);
  const std::vector<std::uint8_t> frame = encode_score_request(1, batch);
  std::uint64_t state = 0xBEEF;
  for (std::size_t round = 0; round < 500; ++round) {
    std::vector<std::uint8_t> corrupt = frame;
    const std::size_t at = splitmix64_next(state) % corrupt.size();
    corrupt[at] ^= static_cast<std::uint8_t>(1 + splitmix64_next(state) % 255);
    try {
      (void)decode_score_request(
          {corrupt.data() + kHeaderBytes, corrupt.size() - kHeaderBytes});
    } catch (const Error&) {
    }
  }
}

}  // namespace
}  // namespace muffin::serve::rpc
