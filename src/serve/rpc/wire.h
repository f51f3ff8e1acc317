// Length-prefixed binary wire format for the cross-process shard tier.
//
// A connection carries a stream of frames. Every frame is
//
//   24-byte header                      payload (payload_len bytes)
//   +--------+--------+--------+        +------------------------+
//   | u32 magic "MUFN"         |        | message-specific bytes |
//   | u16 version | u16 type   |        +------------------------+
//   | u64 seq                  |
//   | u64 payload_len          |
//   +--------------------------+
//
// all little-endian (common/bytes.h). `seq` is chosen by the requester
// and echoed verbatim in the response, which is what makes request
// pipelining on one connection unambiguous. `payload_len` is validated
// against a configured ceiling *before* the payload is read, so a
// corrupt or hostile length field fails cleanly instead of allocating
// gigabytes; decoders are cursor-based and bounds-checked, so truncated
// frames throw muffin::Error and never over-read.
//
// The format is batch-first by design: a ScoreRequest carries a *batch*
// of records and a ScoreResponse carries the full score matrix plus the
// per-row Prediction metadata. The whole in-process scoring path is
// batched (Model::score_batch -> GEMM); shipping batches keeps that path
// hot end to end instead of degrading the remote hop to per-record
// round trips.
//
// Messages (version 3):
//   ScoreRequest   u32 count, then `count` records (data/serialize.h)
//   ScoreResponse  u32 rows, u32 num_classes, rows*num_classes f64
//                  (row-major score matrix), then per row:
//                  u64 predicted, u8 consensus, u8 cached,
//                  u64 model_version — per row, not per response,
//                  because a batch racing a hot-swap may legitimately
//                  carry rows from two adjacent versions
//   Error          u32 byte length + UTF-8 message; sent instead of a
//                  ScoreResponse when the server failed that request
//   StatsRequest   empty payload; the server answers StatsResponse
//   StatsResponse  the server's authoritative StatsReport:
//                  u64 cache_entries, then two metrics snapshots — the
//                  serving engine's registry, then the server process's —
//                  each: u32 n_counters x {u16 name_len, name bytes,
//                  u64 value}, u32 n_gauges x {u16 name_len, name bytes,
//                  u64 two's-complement value}, u32 n_hists x {u16
//                  name_len, name bytes, u32 n_bounds, n_bounds*f64 upper
//                  bounds, (n_bounds+1)*u64 bucket counts, u64 count,
//                  f64 sum}. The size depends only on which metrics are
//                  registered, never on how much traffic was served.
//   Reload         u32 byte length + UTF-8 artifact path: swap the
//                  server's model to that (server-local) artifact. The
//                  server answers ReloadAck on success, Error otherwise;
//                  either way in-flight scoring is never disturbed.
//   ReloadAck      u64 installed model version
//
// Version 2 widened ScoreResponse rows with the model version that
// scored them (the zero-downtime lifecycle needs the caller to see
// which epoch answered) and added the Reload pair. Version 3 replaced
// the StatsResponse's hand-written engine counters and latency
// reservoir (8 bytes per served request, up to 512 KiB) with the
// engine's registry snapshot. Older peers fail cleanly on the version
// check.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/socket.h"
#include "data/dataset.h"
#include "serve/engine.h"
#include "serve/replica.h"

namespace muffin::serve::rpc {

inline constexpr std::uint32_t kMagic = 0x4E46'554DU;  // "MUFN" little-endian
inline constexpr std::uint16_t kVersion = 3;
inline constexpr std::size_t kHeaderBytes = 24;
/// Payload ceiling of every frame the server and client read (64 MiB);
/// generous for any sane batch, small enough that a corrupt length field
/// cannot exhaust memory.
inline constexpr std::size_t kDefaultMaxFrameBytes = 64u << 20;

/// Types 3 and 4 (the unused HealthProbe/HealthAck pair) are retired:
/// decode_header rejects them, and they are never reused.
enum class MsgType : std::uint16_t {
  ScoreRequest = 1,
  ScoreResponse = 2,
  Error = 5,
  StatsRequest = 6,   ///< additive in v1; empty payload
  StatsResponse = 7,  ///< additive in v1; serialized StatsReport
  Reload = 8,         ///< v2: artifact path; server answers ReloadAck
  ReloadAck = 9,      ///< v2: installed model version
};

struct FrameHeader {
  MsgType type = MsgType::Error;
  std::uint64_t seq = 0;
  std::uint64_t payload_len = 0;
};

/// One decoded frame.
struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

// --- header ---------------------------------------------------------------

/// Append a frame header to `out`.
void encode_header(std::vector<std::uint8_t>& out, MsgType type,
                   std::uint64_t seq, std::uint64_t payload_len);

/// Decode and validate a header from exactly kHeaderBytes bytes: checks
/// magic, version, known type, and payload_len <= max_frame_bytes.
[[nodiscard]] FrameHeader decode_header(
    std::span<const std::uint8_t> bytes,
    std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

// --- payload encoders / decoders -----------------------------------------
// Encoders return the complete frame (header + payload) ready to send.

[[nodiscard]] std::vector<std::uint8_t> encode_score_request(
    std::uint64_t seq, std::span<const data::Record> records);
/// Pointer-span overload: a RemoteShard connection encodes straight from
/// its request wrappers without copying every record first.
[[nodiscard]] std::vector<std::uint8_t> encode_score_request(
    std::uint64_t seq, std::span<const data::Record* const> records);
[[nodiscard]] std::vector<data::Record> decode_score_request(
    std::span<const std::uint8_t> payload);

[[nodiscard]] std::vector<std::uint8_t> encode_score_response(
    std::uint64_t seq, std::span<const Prediction> predictions);
[[nodiscard]] std::vector<Prediction> decode_score_response(
    std::span<const std::uint8_t> payload);

/// StatsRequest (empty payload); the server answers StatsResponse.
[[nodiscard]] std::vector<std::uint8_t> encode_stats_request(
    std::uint64_t seq);
[[nodiscard]] std::vector<std::uint8_t> encode_stats_response(
    std::uint64_t seq, const StatsReport& report);
/// Bounds-checked decode; hostile payloads (truncation, counts that
/// cannot fit, histogram bounds that are not finite and strictly
/// increasing, a histogram count that differs from the sum of its bucket
/// counts) throw muffin::Error.
[[nodiscard]] StatsReport decode_stats_response(
    std::span<const std::uint8_t> payload);

/// Reload: ask the server to hot-swap its model to the artifact at
/// `path` (a path on the *server's* filesystem). Answered with
/// ReloadAck carrying the installed model version.
[[nodiscard]] std::vector<std::uint8_t> encode_reload(std::uint64_t seq,
                                                      const std::string& path);
[[nodiscard]] std::string decode_reload(std::span<const std::uint8_t> payload);
[[nodiscard]] std::vector<std::uint8_t> encode_reload_ack(
    std::uint64_t seq, std::uint64_t model_version);
[[nodiscard]] std::uint64_t decode_reload_ack(
    std::span<const std::uint8_t> payload);

[[nodiscard]] std::vector<std::uint8_t> encode_error(
    std::uint64_t seq, const std::string& message);
[[nodiscard]] std::string decode_error(std::span<const std::uint8_t> payload);

// --- socket framing -------------------------------------------------------

/// Read one whole frame. Returns nullopt on a clean EOF at a frame
/// boundary; throws muffin::Error on truncation, timeout, a malformed
/// header, or an oversized payload. `timeout_ms` bounds each of the two
/// reads (-1 blocks forever).
[[nodiscard]] std::optional<Frame> read_frame(
    common::Socket& socket, std::size_t max_frame_bytes, int timeout_ms);

/// Send one encoded frame (as produced by the encode_* helpers).
void write_frame(common::Socket& socket,
                 std::span<const std::uint8_t> frame_bytes,
                 int timeout_ms = -1);

}  // namespace muffin::serve::rpc
