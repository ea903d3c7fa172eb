#include "src/serve/serve_loop.h"

#include <optional>
#include <string>
#include <vector>

#include "src/serve/protocol.h"

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <unistd.h>
#endif

namespace cknn::serve {

#if defined(__unix__) || defined(__APPLE__)

namespace {

Status WriteAll(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("write failed (errno " +
                             std::to_string(errno) + ")");
    }
    written += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

/// Handles one decoded payload; fills `response` with exactly one frame.
/// Sets `*shutdown` on kShutdown.
void HandlePayload(const std::vector<std::uint8_t>& payload,
                   ServingFrontEnd* front_end,
                   std::vector<std::uint8_t>* response, bool* shutdown) {
  Result<Message> decoded = DecodeMessage(payload.data(), payload.size());
  if (!decoded.ok()) {
    // Payload-level error: framing is intact, respond and carry on.
    EncodeStatusResponse(decoded.status(), response);
    return;
  }
  const Message& message = *decoded;
  switch (message.op) {
    case OpCode::kRead: {
      const Status id_ok = CheckWireId(message.id, "query id");
      if (!id_ok.ok()) {
        EncodeStatusResponse(id_ok, response);
        return;
      }
      // Read-your-writes: fold everything this client already submitted
      // before consulting the registry.
      CKNN_IGNORE_STATUS(
          front_end->Flush(),
          "per-update rejects are answered on their own frames and "
          "counted in Stats(); the read below re-drains and surfaces "
          "any engine error as its own response");
      Result<std::vector<Neighbor>> result =
          front_end->ReadResult(static_cast<QueryId>(message.id));
      if (result.ok()) {
        EncodeReadResponse(*result, response);
      } else {
        EncodeStatusResponse(result.status(), response);
      }
      return;
    }
    case OpCode::kFlush:
      EncodeStatusResponse(front_end->Flush(), response);
      return;
    case OpCode::kStats:
      EncodeStatsResponse(front_end->Stats(), response);
      return;
    case OpCode::kShutdown:
      front_end->Shutdown();
      *shutdown = true;
      EncodeStatusResponse(Status::OK(), response);
      return;
    default: {
      Result<ServeRequest> request = ToServeRequest(message);
      if (!request.ok()) {
        EncodeStatusResponse(request.status(), response);
        return;
      }
      // TrySubmit, not Submit: a full queue must answer
      // ResourceExhausted (the client's back-off signal), not block
      // the connection's reader.
      EncodeStatusResponse(front_end->TrySubmit(*request), response);
      return;
    }
  }
}

}  // namespace

ServeLoopResult ServeConnection(int fd, ServingFrontEnd* front_end) {
  ServeLoopResult result;
  FrameDecoder decoder;
  std::uint8_t chunk[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      result.status = Status::IoError("read failed (errno " +
                                      std::to_string(errno) + ")");
      return result;
    }
    if (n == 0) {
      result.status = decoder.Finish();  // Truncated-frame check.
      return result;
    }
    decoder.Append(chunk, static_cast<std::size_t>(n));
    while (true) {
      Result<std::optional<std::vector<std::uint8_t>>> next =
          decoder.Next();
      if (!next.ok()) {
        // Fatal framing error: report it to the peer, then hang up.
        std::vector<std::uint8_t> response;
        EncodeStatusResponse(next.status(), &response);
        CKNN_IGNORE_STATUS(WriteAll(fd, response),
                           "best-effort error report on a stream that is "
                           "about to close; the framing error below is "
                           "what the caller sees");
        result.status = next.status();
        return result;
      }
      if (!next->has_value()) break;  // Need more bytes.
      ++result.frames;
      std::vector<std::uint8_t> response;
      bool shutdown = false;
      HandlePayload(**next, front_end, &response, &shutdown);
      Status wrote = WriteAll(fd, response);
      if (!wrote.ok()) {
        result.status = wrote;
        return result;
      }
      if (shutdown) {
        result.shutdown = true;
        return result;
      }
    }
  }
}

#else  // !(__unix__ || __APPLE__)

ServeLoopResult ServeConnection(int, ServingFrontEnd*) {
  ServeLoopResult result;
  result.status =
      Status::Internal("socket serving requires a POSIX platform");
  return result;
}

#endif

}  // namespace cknn::serve
