#include "src/serve/protocol.h"

#include <cstring>
#include <limits>
#include <string>

#include "src/util/macros.h"

namespace cknn::serve {

namespace {

void PutU8(std::uint8_t v, std::vector<std::uint8_t>* out) {
  out->push_back(v);
}

void PutU32(std::uint32_t v, std::vector<std::uint8_t>* out) {
  out->push_back(static_cast<std::uint8_t>(v >> 24));
  out->push_back(static_cast<std::uint8_t>(v >> 16));
  out->push_back(static_cast<std::uint8_t>(v >> 8));
  out->push_back(static_cast<std::uint8_t>(v));
}

void PutU64(std::uint64_t v, std::vector<std::uint8_t>* out) {
  PutU32(static_cast<std::uint32_t>(v >> 32), out);
  PutU32(static_cast<std::uint32_t>(v), out);
}

void PutF64(double v, std::vector<std::uint8_t>* out) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "IEEE-754 double expected");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits, out);
}

std::uint32_t GetU32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

std::uint64_t GetU64(const std::uint8_t* p) {
  return (static_cast<std::uint64_t>(GetU32(p)) << 32) | GetU32(p + 4);
}

double GetF64(const std::uint8_t* p) {
  const std::uint64_t bits = GetU64(p);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Fixed payload size of a request opcode; 0 for unknown opcodes.
std::size_t PayloadSizeOf(OpCode op) {
  switch (op) {
    case OpCode::kInstallQuery:
      return 1 + 8 + 8 + 8 + 4;  // op, id, edge, t, k
    case OpCode::kMoveQuery:
    case OpCode::kAddObject:
    case OpCode::kMoveObject:
      return 1 + 8 + 8 + 8;  // op, id, edge, t
    case OpCode::kTerminateQuery:
    case OpCode::kRemoveObject:
    case OpCode::kRead:
      return 1 + 8;  // op, id
    case OpCode::kUpdateWeight:
      return 1 + 8 + 8;  // op, edge, weight
    case OpCode::kFlush:
    case OpCode::kStats:
    case OpCode::kShutdown:
      return 1;  // op
  }
  return 0;
}

/// Reserves the 4-byte length prefix in `out`; `FinishFrame` fills it in.
std::size_t BeginFrame(std::vector<std::uint8_t>* out) {
  const std::size_t header_at = out->size();
  PutU32(0, out);
  return header_at;
}

void FinishFrame(std::size_t header_at, std::vector<std::uint8_t>* out) {
  const std::size_t payload = out->size() - header_at - kFrameHeaderBytes;
  // cknn-lint: allow(abort) frame sizes come from the server's own encoder, never from client bytes
  CKNN_CHECK(payload > 0 && payload <= kMaxFramePayload);
  (*out)[header_at] = static_cast<std::uint8_t>(payload >> 24);
  (*out)[header_at + 1] = static_cast<std::uint8_t>(payload >> 16);
  (*out)[header_at + 2] = static_cast<std::uint8_t>(payload >> 8);
  (*out)[header_at + 3] = static_cast<std::uint8_t>(payload);
}

void PutStatusHeader(ResponseKind kind, StatusCode code,
                     const std::string& message,
                     std::vector<std::uint8_t>* out) {
  PutU8(static_cast<std::uint8_t>(kind), out);
  PutU8(static_cast<std::uint8_t>(code), out);
  PutU32(static_cast<std::uint32_t>(message.size()), out);
  out->insert(out->end(), message.begin(), message.end());
}

}  // namespace

void EncodeMessage(const Message& message, std::vector<std::uint8_t>* out) {
  const std::size_t header_at = BeginFrame(out);
  PutU8(static_cast<std::uint8_t>(message.op), out);
  switch (message.op) {
    case OpCode::kInstallQuery:
      PutU64(message.id, out);
      PutU64(message.edge, out);
      PutF64(message.t, out);
      PutU32(message.k, out);
      break;
    case OpCode::kMoveQuery:
    case OpCode::kAddObject:
    case OpCode::kMoveObject:
      PutU64(message.id, out);
      PutU64(message.edge, out);
      PutF64(message.t, out);
      break;
    case OpCode::kTerminateQuery:
    case OpCode::kRemoveObject:
    case OpCode::kRead:
      PutU64(message.id, out);
      break;
    case OpCode::kUpdateWeight:
      PutU64(message.edge, out);
      PutF64(message.weight, out);
      break;
    case OpCode::kFlush:
    case OpCode::kStats:
    case OpCode::kShutdown:
      break;
  }
  FinishFrame(header_at, out);
}

void EncodeStatusResponse(const Status& status,
                          std::vector<std::uint8_t>* out) {
  const std::size_t header_at = BeginFrame(out);
  PutStatusHeader(ResponseKind::kStatus, status.code(), status.message(),
                  out);
  FinishFrame(header_at, out);
}

void EncodeReadResponse(const std::vector<Neighbor>& neighbors,
                        std::vector<std::uint8_t>* out) {
  const std::size_t header_at = BeginFrame(out);
  PutStatusHeader(ResponseKind::kRead, StatusCode::kOk, std::string(), out);
  PutU32(static_cast<std::uint32_t>(neighbors.size()), out);
  for (const Neighbor& n : neighbors) {
    PutU64(n.id, out);
    PutF64(n.distance, out);
  }
  FinishFrame(header_at, out);
}

void EncodeStatsResponse(const ServingStats& stats,
                         std::vector<std::uint8_t>* out) {
  const std::size_t header_at = BeginFrame(out);
  PutStatusHeader(ResponseKind::kStats, StatusCode::kOk, std::string(), out);
  PutU64(stats.accepted, out);
  PutU64(stats.rejected_queue_full, out);
  PutU64(stats.rejected_invalid, out);
  PutU64(stats.applied, out);
  PutU64(stats.ticks, out);
  PutU64(stats.max_queue_depth, out);
  PutU64(stats.latency_samples, out);
  PutF64(stats.latency_p50_sec, out);
  PutF64(stats.latency_p95_sec, out);
  PutF64(stats.latency_p99_sec, out);
  PutF64(stats.latency_max_sec, out);
  FinishFrame(header_at, out);
}

Result<Message> DecodeMessage(const std::uint8_t* data, std::size_t size) {
  if (size == 0) {
    return Status::InvalidArgument("empty request payload");
  }
  const OpCode op = static_cast<OpCode>(data[0]);
  const std::size_t expected = PayloadSizeOf(op);
  if (expected == 0) {
    return Status::InvalidArgument(
        "unknown opcode " + std::to_string(static_cast<int>(data[0])));
  }
  if (size != expected) {
    return Status::InvalidArgument(
        "opcode " + std::to_string(static_cast<int>(data[0])) +
        ": payload is " + std::to_string(size) + " bytes, expected " +
        std::to_string(expected));
  }
  Message message;
  message.op = op;
  const std::uint8_t* p = data + 1;
  switch (op) {
    case OpCode::kInstallQuery:
      message.id = GetU64(p);
      message.edge = GetU64(p + 8);
      message.t = GetF64(p + 16);
      message.k = GetU32(p + 24);
      break;
    case OpCode::kMoveQuery:
    case OpCode::kAddObject:
    case OpCode::kMoveObject:
      message.id = GetU64(p);
      message.edge = GetU64(p + 8);
      message.t = GetF64(p + 16);
      break;
    case OpCode::kTerminateQuery:
    case OpCode::kRemoveObject:
    case OpCode::kRead:
      message.id = GetU64(p);
      break;
    case OpCode::kUpdateWeight:
      message.edge = GetU64(p);
      message.weight = GetF64(p + 8);
      break;
    case OpCode::kFlush:
    case OpCode::kStats:
    case OpCode::kShutdown:
      break;
  }
  return message;
}

Result<Response> DecodeResponse(const std::uint8_t* data, std::size_t size) {
  // Status header: kind, code, message length, message.
  if (size < 1 + 1 + 4) {
    return Status::InvalidArgument("response payload too short");
  }
  Response response;
  const std::uint8_t kind = data[0];
  if (kind > static_cast<std::uint8_t>(ResponseKind::kStats)) {
    return Status::InvalidArgument("unknown response kind " +
                                   std::to_string(static_cast<int>(kind)));
  }
  response.kind = static_cast<ResponseKind>(kind);
  if (data[1] > static_cast<std::uint8_t>(StatusCode::kInternal)) {
    return Status::InvalidArgument("unknown status code in response");
  }
  response.code = static_cast<StatusCode>(data[1]);
  const std::uint32_t message_len = GetU32(data + 2);
  std::size_t at = 1 + 1 + 4;
  if (size - at < message_len) {
    return Status::InvalidArgument("response message truncated");
  }
  response.message.assign(reinterpret_cast<const char*>(data + at),
                          message_len);
  at += message_len;
  switch (response.kind) {
    case ResponseKind::kStatus:
      if (size != at) {
        return Status::InvalidArgument("status response trailing bytes");
      }
      break;
    case ResponseKind::kRead: {
      if (size - at < 4) {
        return Status::InvalidArgument("read response missing count");
      }
      const std::uint32_t count = GetU32(data + at);
      at += 4;
      if ((size - at) / 16 < count || (size - at) % 16 != 0 ||
          size - at != static_cast<std::size_t>(count) * 16) {
        return Status::InvalidArgument("read response neighbor list size "
                                       "mismatch");
      }
      response.neighbors.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        Neighbor n;
        n.id = static_cast<ObjectId>(GetU64(data + at));
        n.distance = GetF64(data + at + 8);
        response.neighbors.push_back(n);
        at += 16;
      }
      break;
    }
    case ResponseKind::kStats: {
      if (size - at != 7 * 8 + 4 * 8) {
        return Status::InvalidArgument("stats response size mismatch");
      }
      response.stats.accepted = GetU64(data + at);
      response.stats.rejected_queue_full = GetU64(data + at + 8);
      response.stats.rejected_invalid = GetU64(data + at + 16);
      response.stats.applied = GetU64(data + at + 24);
      response.stats.ticks = GetU64(data + at + 32);
      response.stats.max_queue_depth =
          static_cast<std::size_t>(GetU64(data + at + 40));
      response.stats.latency_samples = GetU64(data + at + 48);
      response.stats.latency_p50_sec = GetF64(data + at + 56);
      response.stats.latency_p95_sec = GetF64(data + at + 64);
      response.stats.latency_p99_sec = GetF64(data + at + 72);
      response.stats.latency_max_sec = GetF64(data + at + 80);
      break;
    }
  }
  return response;
}

Status CheckWireId(std::uint64_t id, const char* what) {
  if (id > std::numeric_limits<std::uint32_t>::max()) {
    return Status::InvalidArgument(std::string(what) + " " +
                                   std::to_string(id) +
                                   " exceeds the 32-bit id range");
  }
  return Status::OK();
}

namespace {

/// The request for update op `op`, reading only the fields its opcode
/// carries. kUpdateWeight addresses an edge: its edge field is the id.
Result<ServeRequest> UpdateRequest(ServeRequest::Op op,
                                   const Message& message, bool has_pos) {
  ServeRequest request;
  request.op = op;
  if (op == ServeRequest::Op::kUpdateWeight) {
    CKNN_RETURN_NOT_OK(CheckWireId(message.edge, "edge"));
    request.id = message.edge;
    request.weight = message.weight;
    return request;
  }
  CKNN_RETURN_NOT_OK(CheckWireId(message.id, "id"));
  request.id = message.id;
  if (has_pos) {
    CKNN_RETURN_NOT_OK(CheckWireId(message.edge, "edge"));
    request.pos =
        NetworkPoint{static_cast<EdgeId>(message.edge), message.t};
  }
  if (op == ServeRequest::Op::kInstallQuery) {
    if (message.k > static_cast<std::uint32_t>(
                        std::numeric_limits<int>::max())) {
      return Status::InvalidArgument("k " + std::to_string(message.k) +
                                     " exceeds INT_MAX");
    }
    request.k = static_cast<int>(message.k);
  }
  return request;
}

}  // namespace

Result<ServeRequest> ToServeRequest(const Message& message) {
  using Op = ServeRequest::Op;
  switch (message.op) {
    case OpCode::kInstallQuery:
      return UpdateRequest(Op::kInstallQuery, message, /*has_pos=*/true);
    case OpCode::kMoveQuery:
      return UpdateRequest(Op::kMoveQuery, message, /*has_pos=*/true);
    case OpCode::kTerminateQuery:
      return UpdateRequest(Op::kTerminateQuery, message, /*has_pos=*/false);
    case OpCode::kAddObject:
      return UpdateRequest(Op::kAddObject, message, /*has_pos=*/true);
    case OpCode::kMoveObject:
      return UpdateRequest(Op::kMoveObject, message, /*has_pos=*/true);
    case OpCode::kRemoveObject:
      return UpdateRequest(Op::kRemoveObject, message, /*has_pos=*/false);
    case OpCode::kUpdateWeight:
      return UpdateRequest(Op::kUpdateWeight, message, /*has_pos=*/false);
    case OpCode::kRead:
    case OpCode::kFlush:
    case OpCode::kStats:
    case OpCode::kShutdown:
      break;
  }
  return Status::InvalidArgument("not an update opcode");
}

void FrameDecoder::Append(const std::uint8_t* data, std::size_t size) {
  // Compact the consumed prefix before growing; keeps the buffer bounded
  // by one partial frame plus the new chunk.
  if (pos_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

Result<std::optional<std::vector<std::uint8_t>>> FrameDecoder::Next() {
  if (buffer_.size() - pos_ < kFrameHeaderBytes) {
    return std::optional<std::vector<std::uint8_t>>();
  }
  const std::size_t declared = GetU32(buffer_.data() + pos_);
  if (declared == 0) {
    return Status::InvalidArgument("frame declares an empty payload");
  }
  if (declared > kMaxFramePayload) {
    return Status::InvalidArgument(
        "frame declares " + std::to_string(declared) +
        " payload bytes (max " + std::to_string(kMaxFramePayload) + ")");
  }
  if (buffer_.size() - pos_ - kFrameHeaderBytes < declared) {
    return std::optional<std::vector<std::uint8_t>>();
  }
  const std::uint8_t* payload = buffer_.data() + pos_ + kFrameHeaderBytes;
  std::vector<std::uint8_t> out(payload, payload + declared);
  pos_ += kFrameHeaderBytes + declared;
  return std::optional<std::vector<std::uint8_t>>(std::move(out));
}

Status FrameDecoder::Finish() const {
  if (buffer_.size() != pos_) {
    return Status::InvalidArgument(
        "stream ended mid-frame (" +
        std::to_string(buffer_.size() - pos_) + " trailing bytes)");
  }
  return Status::OK();
}

}  // namespace cknn::serve
