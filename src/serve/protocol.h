#ifndef NEXTMAINT_SERVE_PROTOCOL_H_
#define NEXTMAINT_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/date.h"
#include "common/status.h"

/// \file protocol.h
/// Versioned length-prefixed binary wire protocol for the fleet daemon.
///
/// One protocol, three consumers: the daemon (src/serve/daemon.h), the
/// client library (src/serve/client.h) and the load generator
/// (perfbench/serve.cc) all speak exactly these bytes — there is no
/// second framing implementation to drift.
///
/// Wire layout. Every message is one *frame*:
///
///     u32  payload length (little-endian, excludes the prefix itself)
///     u8   magic 'N'
///     u8   magic 'M'
///     u8   protocol version (currently 1)
///     u8   message type (MessageType)
///     ...  type-specific body
///
/// All integers are little-endian fixed width; doubles travel as the
/// little-endian bytes of their IEEE-754 bit pattern (bit-exact round
/// trip — the daemon's byte-identity guarantee extends to the wire);
/// strings are a u16 byte length followed by raw bytes; dates are the i64
/// day number of common/date.h. Frames are bounded by kMaxPayloadBytes:
/// a peer announcing a larger payload is malformed, not a large request.
///
/// Error contract: every malformed input — truncated body, trailing
/// garbage, bad magic, unknown version or type, oversized declared
/// length, string length exceeding the payload — decodes to
/// `Status::InvalidArgument`. Decoders never crash, never read out of
/// bounds and never return a partially-filled message.

namespace nextmaint {
namespace serve {
namespace protocol {

/// First magic byte of every payload ('N').
inline constexpr uint8_t kMagic0 = 0x4E;
/// Second magic byte of every payload ('M').
inline constexpr uint8_t kMagic1 = 0x4D;
/// The protocol version this build speaks. Decoders reject every other
/// version so a future v2 daemon can detect v1 peers instead of
/// misparsing them.
inline constexpr uint8_t kProtocolVersion = 1;
/// Size of the length prefix preceding every payload.
inline constexpr size_t kLengthPrefixBytes = 4;
/// Hard ceiling on a payload (magic + header + body). Large enough for a
/// full-history LoadHistory or a multi-thousand-vehicle forecast batch,
/// small enough that a corrupt length prefix cannot provoke a giant
/// allocation.
inline constexpr size_t kMaxPayloadBytes = 1u << 20;
/// Ceiling on a vehicle-id string on the wire.
inline constexpr size_t kMaxVehicleIdBytes = 256;

/// Discriminates the body that follows the frame header. Requests and
/// responses share one numbering space (requests < 64 <= responses) so a
/// stray response fed to the request decoder fails loudly.
enum class MessageType : uint8_t {
  // Requests.
  kAppend = 1,
  kLoadHistory = 2,
  kRefresh = 3,
  kGetForecast = 4,
  kStats = 5,
  kShutdown = 6,
  // Responses.
  kAck = 65,
  kError = 66,
  kOverloaded = 67,
  kRefreshDone = 68,
  kForecastBatch = 69,
  kStatsReport = 70,
};

/// Append one day of utilization for one vehicle. Unknown vehicles are
/// auto-registered with `day` as their first day.
struct AppendRequest {
  std::string vehicle_id;
  Date day;
  double seconds = 0.0;
};

/// Bulk-load (or replace) a vehicle's gap-free history, as a client does
/// before streaming day-by-day appends. Unknown vehicles are
/// auto-registered with `start_day`.
struct LoadHistoryRequest {
  std::string vehicle_id;
  Date start_day;
  std::vector<double> values;
};

/// Barrier: flush every shard's pending appends and refresh all dirty
/// vehicles. Completes once every shard has refreshed.
struct RefreshRequest {};

/// Read forecasts for a batch of vehicles from the shards' published
/// snapshots (lock-free on the daemon side; never blocks on training).
struct GetForecastRequest {
  std::vector<std::string> vehicle_ids;
};

/// Fetch daemon-wide and per-shard serving statistics.
struct StatsRequest {};

/// Ask the daemon to stop accepting traffic and shut down.
struct ShutdownRequest {};

/// Generic success (Append, LoadHistory, Shutdown).
struct AckResponse {};

/// Any request that failed: the Status code and message, round-tripped.
struct ErrorResponse {
  StatusCode code = StatusCode::kUnknown;
  std::string message;

  /// The equivalent Status (for client-side propagation).
  [[nodiscard]] Status ToStatus() const;
  static ErrorResponse FromStatus(const Status& status);
};

/// Admission control rejected the request: the target shard's queue is
/// full. The client should back off and retry; nothing was enqueued.
struct OverloadedResponse {
  uint32_t shard = 0;
  uint32_t queue_depth = 0;
  uint32_t max_queue = 0;
};

/// A Refresh barrier completed on every shard.
struct RefreshDoneResponse {
  /// Highest per-shard snapshot epoch after the barrier.
  uint64_t epoch = 0;
  /// Vehicles retrained, summed across shards.
  uint64_t refreshed = 0;
  /// Vehicles whose cached model was reused, summed across shards.
  uint64_t reused = 0;
  /// Shards that participated.
  uint32_t shards = 0;
};

/// One vehicle's slot in a ForecastBatchResponse. `status_code == kOk`
/// means the forecast fields are populated; otherwise `status_message`
/// says why not (NotFound: never seen; FailedPrecondition: not covered
/// by a published snapshot yet).
struct ForecastEntry {
  std::string vehicle_id;
  StatusCode status_code = StatusCode::kOk;
  std::string status_message;
  // Populated iff status_code == kOk.
  std::string model_name;
  double days_left = 0.0;
  Date predicted_date;
  double usage_seconds_left = 0.0;
  /// Epoch of the shard snapshot this entry was read from.
  uint64_t epoch = 0;
};

/// Response to GetForecast: one entry per requested id, request order.
struct ForecastBatchResponse {
  std::vector<ForecastEntry> entries;
};

/// Per-shard serving statistics.
struct ShardStats {
  uint32_t shard = 0;
  uint64_t vehicles = 0;
  uint64_t epoch = 0;
  uint32_t queue_depth = 0;
  uint64_t dirty = 0;
  uint64_t appends = 0;
  uint64_t overloaded = 0;
};

/// Response to Stats: daemon-wide counters plus one ShardStats per shard.
struct StatsResponse {
  uint64_t frames = 0;
  uint64_t decode_errors = 0;
  uint64_t appends = 0;
  uint64_t load_history = 0;
  uint64_t reads = 0;
  uint64_t overloaded = 0;
  std::vector<ShardStats> shards;
};

/// Any request message.
using Request = std::variant<AppendRequest, LoadHistoryRequest, RefreshRequest,
                             GetForecastRequest, StatsRequest, ShutdownRequest>;

/// Any response message.
using Response =
    std::variant<AckResponse, ErrorResponse, OverloadedResponse,
                 RefreshDoneResponse, ForecastBatchResponse, StatsResponse>;

/// The message type a request/response encodes as.
MessageType TypeOf(const Request& request);
MessageType TypeOf(const Response& response);

/// Encodes a message as a complete wire frame (length prefix included).
/// Encoding cannot fail: oversized inputs are the caller's bug and are
/// clamped by the request validators before they reach the wire.
std::vector<uint8_t> EncodeRequest(const Request& request);
std::vector<uint8_t> EncodeResponse(const Response& response);

/// Decodes one payload (the bytes after the length prefix; e.g. as
/// handed out by FrameAssembler). InvalidArgument on any malformed
/// input, including trailing bytes after a well-formed body.
[[nodiscard]] Result<Request> DecodeRequest(std::span<const uint8_t> payload);
[[nodiscard]] Result<Response> DecodeResponse(std::span<const uint8_t> payload);

/// Reassembles frames from an arbitrary-boundary byte stream (socket
/// reads). Feed bytes as they arrive; Next() yields complete payloads in
/// order. A malformed length prefix (payload longer than
/// kMaxPayloadBytes or shorter than the frame header) poisons the
/// stream: Next() returns InvalidArgument from then on, since byte
/// alignment is lost.
class FrameAssembler {
 public:
  /// Appends raw bytes from the transport.
  void Feed(std::span<const uint8_t> bytes);

  /// Returns the next complete payload, std::nullopt when more bytes are
  /// needed, or InvalidArgument once the stream is poisoned.
  [[nodiscard]] Result<std::optional<std::vector<uint8_t>>> Next();

  /// Bytes currently buffered and not yet handed out (tests /
  /// backpressure accounting).
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;
  bool poisoned_ = false;
};

/// Stable 64-bit FNV-1a hash of a vehicle id — THE sharding function.
/// Shard assignment is `StableVehicleHash(id) % shards`; it is part of
/// the protocol contract so clients and load generators can predict
/// placement without asking the daemon.
uint64_t StableVehicleHash(std::string_view id);

}  // namespace protocol
}  // namespace serve
}  // namespace nextmaint

#endif  // NEXTMAINT_SERVE_PROTOCOL_H_
