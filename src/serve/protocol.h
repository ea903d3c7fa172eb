#ifndef CKNN_SERVE_PROTOCOL_H_
#define CKNN_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/updates.h"
#include "src/serve/front_end.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace cknn::serve {

/// \brief The cknn_serve wire protocol (docs/serving.md): length-prefixed
/// frames over a byte stream.
///
/// A frame is a 4-byte big-endian payload length followed by the payload;
/// the payload's first byte is the opcode, the rest fixed-width big-endian
/// fields (doubles travel as their IEEE-754 bit pattern in a u64).
/// Framing errors — a declared length of zero or beyond
/// `kMaxFramePayload` — are fatal: the stream offers no way to resynchronize,
/// so the server responds with the error and closes. Payload errors — an
/// unknown opcode or a length that does not match the opcode's fixed size
/// — are recoverable: the frame boundary is intact, so the server responds
/// with the error and keeps reading. Either way a malformed frame is
/// rejected before any of it reaches the engine (no partial application).

/// Upper bound on a declared payload length. Every request payload is
/// tiny; the bound exists so a hostile length prefix cannot make the
/// decoder buffer gigabytes.
inline constexpr std::size_t kMaxFramePayload = std::size_t{1} << 20;

/// Bytes of the frame length prefix.
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Request opcodes. The seven update ops mirror `ServeRequest::Op`.
enum class OpCode : std::uint8_t {
  kInstallQuery = 1,   ///< u64 query id, u64 edge, f64 t, u32 k
  kMoveQuery = 2,      ///< u64 query id, u64 edge, f64 t
  kTerminateQuery = 3, ///< u64 query id
  kAddObject = 4,      ///< u64 object id, u64 edge, f64 t
  kMoveObject = 5,     ///< u64 object id, u64 edge, f64 t
  kRemoveObject = 6,   ///< u64 object id
  kUpdateWeight = 7,   ///< u64 edge, f64 weight
  kRead = 8,           ///< u64 query id
  kFlush = 9,          ///< (no fields)
  kStats = 10,         ///< (no fields)
  kShutdown = 11,      ///< (no fields)
};

/// One decoded request frame.
struct Message {
  OpCode op = OpCode::kFlush;
  std::uint64_t id = 0;  ///< Query/object/edge id, by opcode.
  std::uint64_t edge = 0;
  double t = 0.0;
  std::uint32_t k = 1;
  double weight = 0.0;
};

/// Response payload kinds (first byte of every response payload).
enum class ResponseKind : std::uint8_t {
  kStatus = 0,  ///< u8 status code, u32 message length, message bytes
  kRead = 1,    ///< status header, then u32 count, count x (u64 id, f64 d)
  kStats = 2,   ///< status header, then the ServingStats counters
};

/// One decoded response frame.
struct Response {
  ResponseKind kind = ResponseKind::kStatus;
  StatusCode code = StatusCode::kOk;
  std::string message;
  std::vector<Neighbor> neighbors;  ///< kRead only.
  ServingStats stats;               ///< kStats only.
};

/// \name Encoding (append one complete frame to `out`).
/// @{
void EncodeMessage(const Message& message, std::vector<std::uint8_t>* out);
void EncodeStatusResponse(const Status& status,
                          std::vector<std::uint8_t>* out);
void EncodeReadResponse(const std::vector<Neighbor>& neighbors,
                        std::vector<std::uint8_t>* out);
void EncodeStatsResponse(const ServingStats& stats,
                         std::vector<std::uint8_t>* out);
/// @}

/// \name Payload decoding (the payload, without the length prefix).
/// InvalidArgument on unknown opcode / size mismatch — recoverable.
/// @{
Result<Message> DecodeMessage(const std::uint8_t* data, std::size_t size);
Result<Response> DecodeResponse(const std::uint8_t* data, std::size_t size);
/// @}

/// InvalidArgument when a wire id (`what` names the field) does not fit
/// the engine's 32-bit id types: truncating it would alias another entity.
Status CheckWireId(std::uint64_t id, const char* what);

/// The decoded update ops as a ServeRequest (kRead/kFlush/kStats/kShutdown
/// have no such representation; InvalidArgument). Only the fields the
/// opcode carries are read; an id or edge above 2^32 - 1, or an install's
/// k above INT_MAX, is rejected with InvalidArgument.
Result<ServeRequest> ToServeRequest(const Message& message);

/// \brief Incremental frame reassembly over an arbitrary chunking of the
/// byte stream.
class FrameDecoder {
 public:
  /// Buffers `size` more stream bytes.
  void Append(const std::uint8_t* data, std::size_t size);

  /// Next complete payload: nullopt when more bytes are needed,
  /// InvalidArgument (fatal — close the stream) when the declared length
  /// is zero or exceeds kMaxFramePayload. Frames already buffered remain
  /// retrievable after an error was reported for a later one.
  Result<std::optional<std::vector<std::uint8_t>>> Next();

  /// Stream-end check: InvalidArgument if a partial frame is buffered
  /// (the peer truncated mid-frame).
  Status Finish() const;

  /// Bytes buffered but not yet returned.
  std::size_t BufferedBytes() const { return buffer_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t pos_ = 0;  ///< Consumed prefix of buffer_.
};

}  // namespace cknn::serve

#endif  // CKNN_SERVE_PROTOCOL_H_
