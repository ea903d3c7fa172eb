// End-to-end serve loop over a socketpair (src/serve/serve_loop.h): one
// response frame per request in order, recoverable payload errors keep
// the connection alive, fatal framing errors and truncation close it
// cleanly, and kShutdown stops the loop. This is the same code path a
// cknn_serve TCP connection runs — minus the flaky parts.

#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/server.h"
#include "src/gen/network_gen.h"
#include "src/serve/front_end.h"
#include "src/serve/protocol.h"
#include "src/serve/serve_loop.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <unistd.h>

namespace cknn::serve {
namespace {

class ServeLoopTest : public ::testing::Test {
 protected:
  ServeLoopTest()
      : server_(GenerateRoadNetwork(NetworkGenConfig{.target_edges = 200,
                                                     .seed = 7}),
                Algorithm::kIma, /*num_shards=*/1, /*pipeline_depth=*/2),
        front_end_(&server_) {
    front_end_.Start();
  }

  /// Starts the loop on one end of a fresh socketpair; returns the
  /// client end.
  int StartLoop() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    loop_ = std::thread([this, server_fd = fds[0]] {
      result_ = ServeConnection(server_fd, &front_end_);
      ::close(server_fd);
    });
    return fds[1];
  }

  void JoinLoop(int client_fd) {
    ::close(client_fd);
    loop_.join();
  }

  void WriteAll(int fd, const std::vector<std::uint8_t>& bytes) {
    std::size_t at = 0;
    while (at < bytes.size()) {
      const ssize_t n = ::write(fd, bytes.data() + at, bytes.size() - at);
      ASSERT_GT(n, 0);
      at += static_cast<std::size_t>(n);
    }
  }

  /// Reads until one whole response frame is decoded.
  Response ReadResponse(int fd) {
    while (true) {
      Result<std::optional<std::vector<std::uint8_t>>> next =
          decoder_.Next();
      EXPECT_TRUE(next.ok()) << next.status().ToString();
      if (next.ok() && next->has_value()) {
        Result<Response> response =
            DecodeResponse((*next)->data(), (*next)->size());
        EXPECT_TRUE(response.ok()) << response.status().ToString();
        return response.ok() ? *response : Response{};
      }
      std::uint8_t chunk[4096];
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      EXPECT_GT(n, 0) << "connection closed while awaiting a response";
      if (n <= 0) return Response{};
      decoder_.Append(chunk, static_cast<std::size_t>(n));
    }
  }

  Response Transact(int fd, const Message& message) {
    std::vector<std::uint8_t> frame;
    EncodeMessage(message, &frame);
    WriteAll(fd, frame);
    return ReadResponse(fd);
  }

  MonitoringServer server_;
  ServingFrontEnd front_end_;
  FrameDecoder decoder_;
  std::thread loop_;
  ServeLoopResult result_;
};

TEST_F(ServeLoopTest, FullSessionInOrder) {
  const int fd = StartLoop();
  Message m;
  m.op = OpCode::kInstallQuery;
  m.id = 3;
  m.edge = 0;
  m.t = 0.5;
  m.k = 2;
  EXPECT_EQ(Transact(fd, m).code, StatusCode::kOk);

  m = Message();
  m.op = OpCode::kAddObject;
  m.id = 11;
  m.edge = 0;
  m.t = 0.25;
  EXPECT_EQ(Transact(fd, m).code, StatusCode::kOk);

  m = Message();
  m.op = OpCode::kFlush;
  EXPECT_EQ(Transact(fd, m).code, StatusCode::kOk);

  m = Message();
  m.op = OpCode::kRead;
  m.id = 3;
  Response read = Transact(fd, m);
  EXPECT_EQ(read.kind, ResponseKind::kRead);
  EXPECT_EQ(read.code, StatusCode::kOk);
  ASSERT_EQ(read.neighbors.size(), 1u);
  EXPECT_EQ(read.neighbors[0].id, 11u);

  // Reading an unknown query is an error response, not a dead connection.
  m.id = 999;
  Response missing = Transact(fd, m);
  EXPECT_EQ(missing.kind, ResponseKind::kStatus);
  EXPECT_EQ(missing.code, StatusCode::kNotFound);

  m = Message();
  m.op = OpCode::kStats;
  Response stats = Transact(fd, m);
  EXPECT_EQ(stats.kind, ResponseKind::kStats);
  EXPECT_EQ(stats.stats.applied, 2u);

  m = Message();
  m.op = OpCode::kShutdown;
  EXPECT_EQ(Transact(fd, m).code, StatusCode::kOk);
  JoinLoop(fd);
  EXPECT_TRUE(result_.shutdown);
  EXPECT_EQ(result_.frames, 7u);
}

TEST_F(ServeLoopTest, PayloadErrorsKeepTheConnectionAlive) {
  const int fd = StartLoop();

  // Unknown opcode inside an intact frame: an error response, then
  // business as usual.
  std::vector<std::uint8_t> bad = {0, 0, 0, 1, 0xEE};
  WriteAll(fd, bad);
  EXPECT_EQ(ReadResponse(fd).code, StatusCode::kInvalidArgument);

  // A size-mismatched kRead payload (2 bytes instead of 9).
  bad = {0, 0, 0, 2, 8, 0};
  WriteAll(fd, bad);
  EXPECT_EQ(ReadResponse(fd).code, StatusCode::kInvalidArgument);

  Message m;
  m.op = OpCode::kStats;
  EXPECT_EQ(Transact(fd, m).kind, ResponseKind::kStats);

  m.op = OpCode::kShutdown;
  EXPECT_EQ(Transact(fd, m).code, StatusCode::kOk);
  JoinLoop(fd);
  EXPECT_TRUE(result_.shutdown);
}

TEST_F(ServeLoopTest, WideWireIdsAreRejectedWithoutAliasing) {
  // Each frame below names an id above 2^32 - 1. Truncated to the
  // engine's 32-bit ids they would hit edge 3, object 9, and query 3;
  // instead each is answered InvalidArgument and no entity changes.
  constexpr std::uint64_t kWide = std::uint64_t{1} << 32;
  const double weight_before = server_.network().WeightOf(3);
  const int fd = StartLoop();
  Message m;
  m.op = OpCode::kInstallQuery;
  m.id = 3;
  m.edge = 0;
  m.t = 0.5;
  m.k = 2;
  EXPECT_EQ(Transact(fd, m).code, StatusCode::kOk);

  m = Message();
  m.op = OpCode::kUpdateWeight;
  m.edge = kWide + 3;
  m.weight = weight_before + 5.0;
  EXPECT_EQ(Transact(fd, m).code, StatusCode::kInvalidArgument);

  m = Message();
  m.op = OpCode::kAddObject;
  m.id = kWide + 9;
  m.edge = 1;
  m.t = 0.5;
  EXPECT_EQ(Transact(fd, m).code, StatusCode::kInvalidArgument);

  m = Message();
  m.op = OpCode::kRead;
  m.id = kWide + 3;
  Response read = Transact(fd, m);
  EXPECT_EQ(read.kind, ResponseKind::kStatus);
  EXPECT_EQ(read.code, StatusCode::kInvalidArgument);

  m = Message();
  m.op = OpCode::kShutdown;
  EXPECT_EQ(Transact(fd, m).code, StatusCode::kOk);
  JoinLoop(fd);
  // Shutdown drained the engine, so its tables can be read here.
  EXPECT_EQ(front_end_.Stats().applied, 1u);
  EXPECT_EQ(server_.network().WeightOf(3), weight_before);
  EXPECT_FALSE(server_.objects().Contains(9));
  EXPECT_EQ(server_.objects().size(), 0u);
  EXPECT_EQ(server_.NumQueries(), 1u);
}

TEST_F(ServeLoopTest, FramingErrorClosesAfterReporting) {
  const int fd = StartLoop();
  const std::vector<std::uint8_t> zeros = {0, 0, 0, 0};  // Empty payload.
  WriteAll(fd, zeros);
  EXPECT_EQ(ReadResponse(fd).code, StatusCode::kInvalidArgument);
  // The loop hangs up: the next read sees EOF.
  std::uint8_t byte = 0;
  EXPECT_EQ(::read(fd, &byte, 1), 0);
  JoinLoop(fd);
  EXPECT_FALSE(result_.status.ok());
  EXPECT_FALSE(result_.shutdown);
}

TEST_F(ServeLoopTest, TruncatedFrameIsReportedAtEof) {
  const int fd = StartLoop();
  std::vector<std::uint8_t> frame;
  Message m;
  m.op = OpCode::kAddObject;
  m.id = 1;
  m.edge = 0;
  m.t = 0.5;
  EncodeMessage(m, &frame);
  frame.resize(frame.size() - 4);  // Cut mid-frame...
  WriteAll(fd, frame);
  ::shutdown(fd, SHUT_WR);  // ...and hang up.
  loop_.join();
  ::close(fd);
  EXPECT_TRUE(result_.status.IsInvalidArgument());
  // The truncated frame never reached the engine.
  EXPECT_EQ(front_end_.Stats().accepted, 0u);
}

}  // namespace
}  // namespace cknn::serve

#else

// Non-POSIX: the serve loop is a stub; nothing to test here.

#endif
