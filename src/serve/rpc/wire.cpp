#include "serve/rpc/wire.h"

#include <cmath>
#include <limits>

#include "common/error.h"
#include "data/serialize.h"

namespace muffin::serve::rpc {

namespace {

bool known_type(std::uint16_t raw) {
  constexpr std::uint16_t kRetiredHealthProbe = 3;
  constexpr std::uint16_t kRetiredHealthAck = 4;
  return raw >= static_cast<std::uint16_t>(MsgType::ScoreRequest) &&
         raw <= static_cast<std::uint16_t>(MsgType::ReloadAck) &&
         raw != kRetiredHealthProbe && raw != kRetiredHealthAck;
}

/// Reserve header space in a fresh frame buffer; the payload length is
/// patched in once the payload has been appended.
std::vector<std::uint8_t> begin_frame(MsgType type, std::uint64_t seq) {
  std::vector<std::uint8_t> frame;
  encode_header(frame, type, seq, 0);
  return frame;
}

void finish_frame(std::vector<std::uint8_t>& frame) {
  // payload_len lives in the last 8 header bytes.
  common::patch_u64(frame, kHeaderBytes - 8, frame.size() - kHeaderBytes);
}

}  // namespace

void encode_header(std::vector<std::uint8_t>& out, MsgType type,
                   std::uint64_t seq, std::uint64_t payload_len) {
  common::put_u32(out, kMagic);
  common::put_u16(out, kVersion);
  common::put_u16(out, static_cast<std::uint16_t>(type));
  common::put_u64(out, seq);
  common::put_u64(out, payload_len);
}

FrameHeader decode_header(std::span<const std::uint8_t> bytes,
                          std::size_t max_frame_bytes) {
  MUFFIN_REQUIRE(bytes.size() == kHeaderBytes,
                 "frame header must be exactly " +
                     std::to_string(kHeaderBytes) + " bytes");
  common::ByteReader reader(bytes);
  const std::uint32_t magic = reader.u32();
  MUFFIN_REQUIRE(magic == kMagic, "bad frame magic (not a muffin peer)");
  const std::uint16_t version = reader.u16();
  MUFFIN_REQUIRE(version == kVersion,
                 "unsupported wire version " + std::to_string(version) +
                     " (this build speaks " + std::to_string(kVersion) + ")");
  const std::uint16_t raw_type = reader.u16();
  MUFFIN_REQUIRE(known_type(raw_type),
                 "unknown frame type " + std::to_string(raw_type));
  FrameHeader header;
  header.type = static_cast<MsgType>(raw_type);
  header.seq = reader.u64();
  header.payload_len = reader.u64();
  MUFFIN_REQUIRE(header.payload_len <= max_frame_bytes,
                 "frame payload of " + std::to_string(header.payload_len) +
                     " bytes exceeds the " +
                     std::to_string(max_frame_bytes) + "-byte ceiling");
  return header;
}

namespace {

/// Shared implementation over any accessor yielding `const Record&`.
template <typename Range, typename Deref>
std::vector<std::uint8_t> encode_score_request_impl(std::uint64_t seq,
                                                    const Range& records,
                                                    Deref deref) {
  MUFFIN_REQUIRE(
      records.size() <= std::numeric_limits<std::uint32_t>::max(),
      "record batch too large for the wire format");
  std::vector<std::uint8_t> frame = begin_frame(MsgType::ScoreRequest, seq);
  if (!records.empty()) {
    // Size the frame once from the first record's shape (records of one
    // batch share it in practice); growth still works if they differ.
    const data::Record& first = deref(records[0]);
    frame.reserve(frame.size() + 4 +
                  records.size() *
                      (40 + 8 * (first.groups.size() +
                                 first.features.size())));
  }
  common::put_u32(frame, static_cast<std::uint32_t>(records.size()));
  for (std::size_t i = 0; i < records.size(); ++i) {
    data::encode_record(deref(records[i]), frame);
  }
  finish_frame(frame);
  return frame;
}

}  // namespace

std::vector<std::uint8_t> encode_score_request(
    std::uint64_t seq, std::span<const data::Record> records) {
  return encode_score_request_impl(
      seq, records, [](const data::Record& record) -> const data::Record& {
        return record;
      });
}

std::vector<std::uint8_t> encode_score_request(
    std::uint64_t seq, std::span<const data::Record* const> records) {
  return encode_score_request_impl(
      seq, records, [](const data::Record* record) -> const data::Record& {
        return *record;
      });
}

std::vector<data::Record> decode_score_request(
    std::span<const std::uint8_t> payload) {
  common::ByteReader reader(payload);
  const std::uint32_t count = reader.u32();
  // A record is at least 32 bytes (uid, label, counts, difficulty).
  reader.require_count(count, 32);
  std::vector<data::Record> records;
  records.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    records.push_back(data::decode_record(reader));
  }
  MUFFIN_REQUIRE(reader.done(), "trailing bytes after score request");
  return records;
}

std::vector<std::uint8_t> encode_score_response(
    std::uint64_t seq, std::span<const Prediction> predictions) {
  const std::size_t rows = predictions.size();
  const std::size_t num_classes = rows == 0 ? 0 : predictions[0].scores.size();
  std::vector<std::uint8_t> frame = begin_frame(MsgType::ScoreResponse, seq);
  frame.reserve(frame.size() + 8 + rows * (num_classes * 8 + 18));
  common::put_u32(frame, static_cast<std::uint32_t>(rows));
  common::put_u32(frame, static_cast<std::uint32_t>(num_classes));
  for (const Prediction& prediction : predictions) {
    MUFFIN_REQUIRE(prediction.scores.size() == num_classes,
                   "ragged score rows in one response");
    common::put_f64_span(frame, prediction.scores);
  }
  for (const Prediction& prediction : predictions) {
    common::put_u64(frame, static_cast<std::uint64_t>(prediction.predicted));
    frame.push_back(prediction.consensus ? 1 : 0);
    frame.push_back(prediction.cached ? 1 : 0);
    common::put_u64(frame, prediction.model_version);
  }
  finish_frame(frame);
  return frame;
}

std::vector<Prediction> decode_score_response(
    std::span<const std::uint8_t> payload) {
  common::ByteReader reader(payload);
  const std::uint32_t rows = reader.u32();
  const std::uint32_t num_classes = reader.u32();
  // Each row costs num_classes doubles plus 18 metadata bytes.
  reader.require_count(rows,
                       static_cast<std::size_t>(num_classes) * 8 + 18);
  std::vector<Prediction> predictions(rows);
  for (std::uint32_t r = 0; r < rows; ++r) {
    reader.f64_into(predictions[r].scores, num_classes);
  }
  for (std::uint32_t r = 0; r < rows; ++r) {
    predictions[r].predicted = static_cast<std::size_t>(reader.u64());
    predictions[r].consensus = reader.u8() != 0;
    predictions[r].cached = reader.u8() != 0;
    predictions[r].model_version = reader.u64();
  }
  MUFFIN_REQUIRE(reader.done(), "trailing bytes after score response");
  return predictions;
}

namespace {

void put_name(std::vector<std::uint8_t>& frame, const std::string& name) {
  MUFFIN_REQUIRE(name.size() <= std::numeric_limits<std::uint16_t>::max(),
                 "metric name too long for the wire format");
  common::put_u16(frame, static_cast<std::uint16_t>(name.size()));
  frame.insert(frame.end(), name.begin(), name.end());
}

std::string read_name(common::ByteReader& reader) {
  const std::uint16_t length = reader.u16();
  const std::span<const std::uint8_t> bytes = reader.bytes(length);
  return std::string(bytes.begin(), bytes.end());
}

void put_snapshot(std::vector<std::uint8_t>& frame,
                  const obs::MetricsSnapshot& metrics) {
  common::put_u32(frame, static_cast<std::uint32_t>(metrics.counters.size()));
  for (const obs::CounterSnapshot& counter : metrics.counters) {
    put_name(frame, counter.name);
    common::put_u64(frame, counter.value);
  }
  common::put_u32(frame, static_cast<std::uint32_t>(metrics.gauges.size()));
  for (const obs::GaugeSnapshot& gauge : metrics.gauges) {
    put_name(frame, gauge.name);
    common::put_u64(frame, static_cast<std::uint64_t>(gauge.value));
  }
  common::put_u32(frame,
                  static_cast<std::uint32_t>(metrics.histograms.size()));
  for (const obs::HistogramSnapshot& histogram : metrics.histograms) {
    put_name(frame, histogram.name);
    common::put_u32(frame,
                    static_cast<std::uint32_t>(histogram.bounds.size()));
    common::put_f64_span(frame, histogram.bounds);
    for (const std::uint64_t count : histogram.counts) {
      common::put_u64(frame, count);
    }
    common::put_u64(frame, histogram.count);
    common::put_f64(frame, histogram.sum);
  }
}

obs::MetricsSnapshot read_snapshot(common::ByteReader& reader) {
  obs::MetricsSnapshot metrics;
  const std::uint32_t n_counters = reader.u32();
  reader.require_count(n_counters, 10);  // 2-byte name length + u64
  metrics.counters.reserve(n_counters);
  for (std::uint32_t i = 0; i < n_counters; ++i) {
    obs::CounterSnapshot counter;
    counter.name = read_name(reader);
    counter.value = reader.u64();
    metrics.counters.push_back(std::move(counter));
  }
  const std::uint32_t n_gauges = reader.u32();
  reader.require_count(n_gauges, 10);
  metrics.gauges.reserve(n_gauges);
  for (std::uint32_t i = 0; i < n_gauges; ++i) {
    obs::GaugeSnapshot gauge;
    gauge.name = read_name(reader);
    gauge.value = static_cast<std::int64_t>(reader.u64());
    metrics.gauges.push_back(std::move(gauge));
  }
  const std::uint32_t n_histograms = reader.u32();
  // Minimum histogram: empty name, zero bounds, one +Inf bucket count,
  // count, sum.
  reader.require_count(n_histograms, 2 + 4 + 8 + 8 + 8);
  metrics.histograms.reserve(n_histograms);
  for (std::uint32_t i = 0; i < n_histograms; ++i) {
    obs::HistogramSnapshot histogram;
    histogram.name = read_name(reader);
    const std::uint32_t n_bounds = reader.u32();
    reader.require_count(n_bounds, 16);  // a bound and its bucket count
    reader.f64_into(histogram.bounds, n_bounds);
    for (std::uint32_t b = 0; b < n_bounds; ++b) {
      MUFFIN_REQUIRE(std::isfinite(histogram.bounds[b]) &&
                         (b == 0 ||
                          histogram.bounds[b - 1] < histogram.bounds[b]),
                     "histogram '" + histogram.name +
                         "' bounds are not finite and strictly increasing");
    }
    // Percentiles and merges trust count == the sum of the buckets.
    std::uint64_t total = 0;
    histogram.counts.reserve(static_cast<std::size_t>(n_bounds) + 1);
    for (std::uint32_t b = 0; b <= n_bounds; ++b) {
      const std::uint64_t count = reader.u64();
      MUFFIN_REQUIRE(count <= std::numeric_limits<std::uint64_t>::max() - total,
                     "histogram '" + histogram.name +
                         "' bucket counts overflow");
      total += count;
      histogram.counts.push_back(count);
    }
    histogram.count = reader.u64();
    MUFFIN_REQUIRE(histogram.count == total,
                   "histogram '" + histogram.name +
                       "' count differs from the sum of its buckets");
    histogram.sum = reader.f64();
    metrics.histograms.push_back(std::move(histogram));
  }
  return metrics;
}

}  // namespace

std::vector<std::uint8_t> encode_stats_request(std::uint64_t seq) {
  std::vector<std::uint8_t> frame = begin_frame(MsgType::StatsRequest, seq);
  finish_frame(frame);
  return frame;
}

std::vector<std::uint8_t> encode_stats_response(std::uint64_t seq,
                                                const StatsReport& report) {
  std::vector<std::uint8_t> frame = begin_frame(MsgType::StatsResponse, seq);
  common::put_u64(frame, report.cache_entries);
  put_snapshot(frame, report.engine);
  put_snapshot(frame, report.process);
  finish_frame(frame);
  return frame;
}

StatsReport decode_stats_response(std::span<const std::uint8_t> payload) {
  common::ByteReader reader(payload);
  StatsReport report;
  report.cache_entries = static_cast<std::size_t>(reader.u64());
  report.engine = read_snapshot(reader);
  report.process = read_snapshot(reader);
  MUFFIN_REQUIRE(reader.done(), "trailing bytes after stats response");
  return report;
}

std::vector<std::uint8_t> encode_reload(std::uint64_t seq,
                                        const std::string& path) {
  MUFFIN_REQUIRE(!path.empty(), "reload needs an artifact path");
  std::vector<std::uint8_t> frame = begin_frame(MsgType::Reload, seq);
  common::put_u32(frame, static_cast<std::uint32_t>(path.size()));
  frame.insert(frame.end(), path.begin(), path.end());
  finish_frame(frame);
  return frame;
}

std::string decode_reload(std::span<const std::uint8_t> payload) {
  common::ByteReader reader(payload);
  const std::uint32_t length = reader.u32();
  MUFFIN_REQUIRE(length > 0, "reload frame carries an empty artifact path");
  reader.require_count(length, 1);
  const std::span<const std::uint8_t> bytes = reader.bytes(length);
  MUFFIN_REQUIRE(reader.done(), "trailing bytes after reload path");
  return std::string(bytes.begin(), bytes.end());
}

std::vector<std::uint8_t> encode_reload_ack(std::uint64_t seq,
                                            std::uint64_t model_version) {
  std::vector<std::uint8_t> frame = begin_frame(MsgType::ReloadAck, seq);
  common::put_u64(frame, model_version);
  finish_frame(frame);
  return frame;
}

std::uint64_t decode_reload_ack(std::span<const std::uint8_t> payload) {
  common::ByteReader reader(payload);
  const std::uint64_t model_version = reader.u64();
  MUFFIN_REQUIRE(reader.done(), "trailing bytes after reload ack");
  return model_version;
}

std::vector<std::uint8_t> encode_error(std::uint64_t seq,
                                       const std::string& message) {
  std::vector<std::uint8_t> frame = begin_frame(MsgType::Error, seq);
  common::put_u32(frame, static_cast<std::uint32_t>(message.size()));
  frame.insert(frame.end(), message.begin(), message.end());
  finish_frame(frame);
  return frame;
}

std::string decode_error(std::span<const std::uint8_t> payload) {
  common::ByteReader reader(payload);
  const std::uint32_t length = reader.u32();
  reader.require_count(length, 1);
  const std::span<const std::uint8_t> bytes = reader.bytes(length);
  MUFFIN_REQUIRE(reader.done(), "trailing bytes after error message");
  return std::string(bytes.begin(), bytes.end());
}

std::optional<Frame> read_frame(common::Socket& socket,
                                std::size_t max_frame_bytes, int timeout_ms) {
  std::uint8_t header_bytes[kHeaderBytes];
  if (!socket.recv_all(header_bytes, kHeaderBytes, timeout_ms)) {
    return std::nullopt;  // peer closed between frames
  }
  Frame frame;
  frame.header = decode_header({header_bytes, kHeaderBytes}, max_frame_bytes);
  frame.payload.resize(frame.header.payload_len);
  if (frame.header.payload_len > 0 &&
      !socket.recv_all(frame.payload.data(), frame.payload.size(),
                       timeout_ms)) {
    throw Error("peer closed between frame header and payload");
  }
  return frame;
}

void write_frame(common::Socket& socket,
                 std::span<const std::uint8_t> frame_bytes, int timeout_ms) {
  socket.send_all(frame_bytes.data(), frame_bytes.size(), timeout_ms);
}

}  // namespace muffin::serve::rpc
