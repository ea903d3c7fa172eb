// Wire-protocol round trips and malformed-frame rejection
// (src/serve/protocol.h): every opcode survives encode -> reassemble ->
// decode under arbitrary chunking; truncated, oversized, and malformed
// frames are rejected cleanly (fatal for framing, recoverable for
// payloads) without any partial decode escaping.

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "gtest/gtest.h"
#include "src/serve/protocol.h"

namespace cknn::serve {
namespace {

/// Feeds `bytes` to a fresh decoder in `chunk`-sized pieces and returns
/// every completed payload.
std::vector<std::vector<std::uint8_t>> Reassemble(
    const std::vector<std::uint8_t>& bytes, std::size_t chunk) {
  FrameDecoder decoder;
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::size_t at = 0; at < bytes.size(); at += chunk) {
    const std::size_t n = std::min(chunk, bytes.size() - at);
    decoder.Append(bytes.data() + at, n);
    while (true) {
      Result<std::optional<std::vector<std::uint8_t>>> next = decoder.Next();
      EXPECT_TRUE(next.ok()) << next.status().ToString();
      if (!next.ok() || !next->has_value()) break;
      payloads.push_back(std::move(**next));
    }
  }
  EXPECT_TRUE(decoder.Finish().ok());
  return payloads;
}

Message SampleMessage(OpCode op) {
  Message m;
  m.op = op;
  m.id = 0x0123456789ABCDEFull;
  m.edge = 42;
  m.t = 0.625;
  m.k = 7;
  m.weight = -3.5;
  return m;
}

TEST(ProtocolTest, EveryOpcodeRoundTrips) {
  const OpCode ops[] = {
      OpCode::kInstallQuery, OpCode::kMoveQuery, OpCode::kTerminateQuery,
      OpCode::kAddObject,    OpCode::kMoveObject, OpCode::kRemoveObject,
      OpCode::kUpdateWeight, OpCode::kRead,      OpCode::kFlush,
      OpCode::kStats,        OpCode::kShutdown,
  };
  std::vector<std::uint8_t> stream;
  for (OpCode op : ops) EncodeMessage(SampleMessage(op), &stream);

  // Reassembly must be chunking-independent: whole stream, byte-by-byte,
  // and an odd prime in between.
  for (std::size_t chunk : {stream.size(), std::size_t{1}, std::size_t{7}}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    const auto payloads = Reassemble(stream, chunk);
    ASSERT_EQ(payloads.size(), std::size(ops));
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      Result<Message> decoded =
          DecodeMessage(payloads[i].data(), payloads[i].size());
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      const Message expect = SampleMessage(ops[i]);
      EXPECT_EQ(decoded->op, expect.op);
      switch (ops[i]) {
        case OpCode::kInstallQuery:
          EXPECT_EQ(decoded->k, expect.k);
          [[fallthrough]];
        case OpCode::kMoveQuery:
        case OpCode::kAddObject:
        case OpCode::kMoveObject:
          EXPECT_EQ(decoded->edge, expect.edge);
          EXPECT_EQ(decoded->t, expect.t);
          [[fallthrough]];
        case OpCode::kTerminateQuery:
        case OpCode::kRemoveObject:
        case OpCode::kRead:
          EXPECT_EQ(decoded->id, expect.id);
          break;
        case OpCode::kUpdateWeight:
          EXPECT_EQ(decoded->edge, expect.edge);
          EXPECT_EQ(decoded->weight, expect.weight);
          break;
        default:
          break;
      }
    }
  }
}

TEST(ProtocolTest, ToServeRequestMapsUpdateOpsOnly) {
  // SampleMessage's id is wider than 32 bits (it exercises the u64 wire
  // field); ToServeRequest needs one that names an engine entity.
  Message install_message = SampleMessage(OpCode::kInstallQuery);
  install_message.id = 17;
  Result<ServeRequest> install = ToServeRequest(install_message);
  ASSERT_TRUE(install.ok()) << install.status().ToString();
  EXPECT_EQ(install->op, ServeRequest::Op::kInstallQuery);
  EXPECT_EQ(install->id, 17u);
  EXPECT_EQ(install->pos, (NetworkPoint{42, 0.625}));
  EXPECT_EQ(install->k, 7);

  // kUpdateWeight addresses an edge: the edge field is the request id.
  Result<ServeRequest> weight =
      ToServeRequest(SampleMessage(OpCode::kUpdateWeight));
  ASSERT_TRUE(weight.ok());
  EXPECT_EQ(weight->op, ServeRequest::Op::kUpdateWeight);
  EXPECT_EQ(weight->id, 42u);
  EXPECT_EQ(weight->weight, -3.5);

  // Non-update opcodes, and values outside the enum (a Message built in
  // process rather than decoded), have no request form.
  for (OpCode op :
       {OpCode::kRead, OpCode::kFlush, OpCode::kStats, OpCode::kShutdown,
        static_cast<OpCode>(0), static_cast<OpCode>(200)}) {
    EXPECT_TRUE(
        ToServeRequest(SampleMessage(op)).status().IsInvalidArgument());
  }
}

TEST(ProtocolTest, ToServeRequestRejectsIdsThatWouldAlias) {
  // Truncated to 32 bits, each of these would address another entity:
  // edge 2^32 + 3 is edge 3, object 2^32 + 9 is object 9.
  constexpr std::uint64_t kWide = std::uint64_t{1} << 32;
  Message weight;
  weight.op = OpCode::kUpdateWeight;
  weight.edge = kWide + 3;
  weight.weight = 2.0;
  EXPECT_TRUE(ToServeRequest(weight).status().IsInvalidArgument());

  Message add;
  add.op = OpCode::kAddObject;
  add.id = kWide + 9;
  add.edge = 1;
  EXPECT_TRUE(ToServeRequest(add).status().IsInvalidArgument());

  // A wide edge on a positioned op, and a wide id on every id-carrying op.
  Message move = add;
  move.op = OpCode::kMoveObject;
  move.id = 9;
  move.edge = kWide + 1;
  EXPECT_TRUE(ToServeRequest(move).status().IsInvalidArgument());
  for (OpCode op : {OpCode::kInstallQuery, OpCode::kMoveQuery,
                    OpCode::kTerminateQuery, OpCode::kMoveObject,
                    OpCode::kRemoveObject}) {
    Message m;
    m.op = op;
    m.id = std::numeric_limits<std::uint64_t>::max();
    EXPECT_TRUE(ToServeRequest(m).status().IsInvalidArgument());
  }

  // The top of the 32-bit range is still a valid id.
  add.id = std::numeric_limits<std::uint32_t>::max();
  Result<ServeRequest> top = ToServeRequest(add);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_EQ(top->id, std::numeric_limits<std::uint32_t>::max());
  weight.edge = std::numeric_limits<std::uint32_t>::max();
  EXPECT_TRUE(ToServeRequest(weight).ok());
}

TEST(ProtocolTest, ToServeRequestRejectsKAboveIntMax) {
  Message install;
  install.op = OpCode::kInstallQuery;
  install.id = 1;
  install.k = static_cast<std::uint32_t>(std::numeric_limits<int>::max());
  Result<ServeRequest> largest = ToServeRequest(install);
  ASSERT_TRUE(largest.ok()) << largest.status().ToString();
  EXPECT_EQ(largest->k, std::numeric_limits<int>::max());
  for (std::uint32_t k : {std::uint32_t{1} << 31,
                          std::numeric_limits<std::uint32_t>::max()}) {
    install.k = k;
    EXPECT_TRUE(ToServeRequest(install).status().IsInvalidArgument()) << k;
  }
}

TEST(ProtocolTest, ResponsesRoundTrip) {
  std::vector<std::uint8_t> stream;
  EncodeStatusResponse(Status::NotFound("unknown query 9"), &stream);
  EncodeReadResponse({Neighbor{3, 1.5}, Neighbor{9, 2.25}}, &stream);
  ServingStats stats;
  stats.accepted = 100;
  stats.applied = 90;
  stats.rejected_queue_full = 7;
  stats.rejected_invalid = 3;
  stats.ticks = 12;
  stats.max_queue_depth = 64;
  stats.latency_samples = 90;
  stats.latency_p50_sec = 0.001;
  stats.latency_p95_sec = 0.002;
  stats.latency_p99_sec = 0.004;
  stats.latency_max_sec = 0.008;
  EncodeStatsResponse(stats, &stream);

  const auto payloads = Reassemble(stream, 5);
  ASSERT_EQ(payloads.size(), 3u);

  Result<Response> status =
      DecodeResponse(payloads[0].data(), payloads[0].size());
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->kind, ResponseKind::kStatus);
  EXPECT_EQ(status->code, StatusCode::kNotFound);
  EXPECT_EQ(status->message, "unknown query 9");

  Result<Response> read =
      DecodeResponse(payloads[1].data(), payloads[1].size());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->kind, ResponseKind::kRead);
  EXPECT_EQ(read->code, StatusCode::kOk);
  ASSERT_EQ(read->neighbors.size(), 2u);
  EXPECT_TRUE(read->neighbors[0] == (Neighbor{3, 1.5}));
  EXPECT_TRUE(read->neighbors[1] == (Neighbor{9, 2.25}));

  Result<Response> decoded =
      DecodeResponse(payloads[2].data(), payloads[2].size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kind, ResponseKind::kStats);
  EXPECT_EQ(decoded->stats.accepted, 100u);
  EXPECT_EQ(decoded->stats.applied, 90u);
  EXPECT_EQ(decoded->stats.rejected_queue_full, 7u);
  EXPECT_EQ(decoded->stats.rejected_invalid, 3u);
  EXPECT_EQ(decoded->stats.ticks, 12u);
  EXPECT_EQ(decoded->stats.max_queue_depth, 64u);
  EXPECT_EQ(decoded->stats.latency_samples, 90u);
  EXPECT_EQ(decoded->stats.latency_p99_sec, 0.004);
}

TEST(ProtocolTest, ZeroLengthFrameIsFatal) {
  const std::uint8_t zeros[4] = {0, 0, 0, 0};
  FrameDecoder decoder;
  decoder.Append(zeros, sizeof(zeros));
  Result<std::optional<std::vector<std::uint8_t>>> next = decoder.Next();
  EXPECT_TRUE(next.status().IsInvalidArgument());
}

TEST(ProtocolTest, OversizedFrameIsFatalBeforeBuffering) {
  // Declares 16 MB: rejected from the 4 header bytes alone — the decoder
  // must not wait for (or try to buffer) the announced payload.
  const std::uint8_t huge[4] = {0x01, 0x00, 0x00, 0x00};
  FrameDecoder decoder;
  decoder.Append(huge, sizeof(huge));
  Result<std::optional<std::vector<std::uint8_t>>> next = decoder.Next();
  EXPECT_TRUE(next.status().IsInvalidArgument());
}

TEST(ProtocolTest, TruncatedStreamFailsFinish) {
  std::vector<std::uint8_t> stream;
  EncodeMessage(SampleMessage(OpCode::kMoveObject), &stream);
  FrameDecoder decoder;
  decoder.Append(stream.data(), stream.size() - 3);  // Cut mid-frame.
  Result<std::optional<std::vector<std::uint8_t>>> next = decoder.Next();
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next->has_value());  // Needs more bytes, no partial decode.
  EXPECT_TRUE(decoder.Finish().IsInvalidArgument());
}

TEST(ProtocolTest, PayloadErrorsAreRecoverable) {
  // Unknown opcode.
  const std::uint8_t unknown[] = {0xEE};
  EXPECT_TRUE(DecodeMessage(unknown, 1).status().IsInvalidArgument());

  // Size mismatch: a kRead payload with one byte lopped off.
  std::vector<std::uint8_t> frame;
  EncodeMessage(SampleMessage(OpCode::kRead), &frame);
  EXPECT_TRUE(DecodeMessage(frame.data() + kFrameHeaderBytes,
                            frame.size() - kFrameHeaderBytes - 1)
                  .status()
                  .IsInvalidArgument());
  // ...and with a byte appended.
  std::vector<std::uint8_t> padded(frame.begin() + kFrameHeaderBytes,
                                   frame.end());
  padded.push_back(0);
  EXPECT_TRUE(DecodeMessage(padded.data(), padded.size())
                  .status()
                  .IsInvalidArgument());

  // An empty payload never reaches DecodeMessage via the decoder (the
  // framing rejects it), but the decoder-level contract still holds.
  EXPECT_TRUE(DecodeMessage(unknown, 0).status().IsInvalidArgument());
}

TEST(ProtocolTest, MalformedResponsesAreRejected) {
  std::vector<std::uint8_t> frame;
  EncodeStatusResponse(Status::OK(), &frame);
  std::vector<std::uint8_t> payload(frame.begin() + kFrameHeaderBytes,
                                    frame.end());

  // Trailing garbage after a status response.
  std::vector<std::uint8_t> trailing = payload;
  trailing.push_back(0x7F);
  EXPECT_TRUE(DecodeResponse(trailing.data(), trailing.size())
                  .status()
                  .IsInvalidArgument());

  // Unknown response kind / status code.
  std::vector<std::uint8_t> bad_kind = payload;
  bad_kind[0] = 0x7F;
  EXPECT_TRUE(DecodeResponse(bad_kind.data(), bad_kind.size())
                  .status()
                  .IsInvalidArgument());
  std::vector<std::uint8_t> bad_code = payload;
  bad_code[1] = 0x7F;
  EXPECT_TRUE(DecodeResponse(bad_code.data(), bad_code.size())
                  .status()
                  .IsInvalidArgument());

  // Message length pointing past the payload.
  std::vector<std::uint8_t> bad_len = payload;
  bad_len[2] = 0xFF;
  EXPECT_TRUE(DecodeResponse(bad_len.data(), bad_len.size())
                  .status()
                  .IsInvalidArgument());

  // A read response whose neighbor count disagrees with its size.
  std::vector<std::uint8_t> read_frame;
  EncodeReadResponse({Neighbor{1, 1.0}}, &read_frame);
  std::vector<std::uint8_t> read_payload(
      read_frame.begin() + kFrameHeaderBytes, read_frame.end());
  read_payload.pop_back();
  EXPECT_TRUE(DecodeResponse(read_payload.data(), read_payload.size())
                  .status()
                  .IsInvalidArgument());
}

TEST(ProtocolTest, FramesBeforeAnErrorStayRetrievable) {
  std::vector<std::uint8_t> stream;
  EncodeMessage(SampleMessage(OpCode::kRead), &stream);
  const std::uint8_t zeros[4] = {0, 0, 0, 0};
  stream.insert(stream.end(), zeros, zeros + 4);

  FrameDecoder decoder;
  decoder.Append(stream.data(), stream.size());
  Result<std::optional<std::vector<std::uint8_t>>> first = decoder.Next();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());  // The good frame comes out first...
  EXPECT_TRUE(decoder.Next().status().IsInvalidArgument());  // ...then the
                                                             // error.
}

}  // namespace
}  // namespace cknn::serve
