// Malformed-frame fuzzing of the serving wire protocol: random valid
// streams must reassemble identically under any chunking; random
// truncations, byte flips, and pure garbage must produce clean
// InvalidArgument errors (or a clean decode, for lucky flips) — never a
// crash, hang, or partial batch — and every decoded update whose fields
// do not fit the engine's id types must fail conversion. Seeded via
// tests/fuzz_util.h (CKNN_FUZZ_SEED / CKNN_FUZZ_SCALE widen the
// exploration).

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/serve/protocol.h"
#include "src/util/rng.h"
#include "tests/fuzz_util.h"

namespace cknn::serve {
namespace {

constexpr std::uint64_t kMaxWireId = std::numeric_limits<std::uint32_t>::max();

/// A u64 wire field: small, at the 32-bit boundary, or anywhere.
std::uint64_t RandomWireId(Rng* rng) {
  switch (rng->NextIndex(3)) {
    case 0:
      return rng->NextIndex(1000);
    case 1:
      return kMaxWireId - 1 + rng->NextIndex(3);  // 2^32 - 2 .. 2^32.
    default:
      return rng->NextU64();
  }
}

Message RandomMessage(Rng* rng) {
  Message m;
  m.op = static_cast<OpCode>(rng->UniformInt(1, 11));
  m.id = RandomWireId(rng);
  m.edge = RandomWireId(rng);
  m.t = rng->NextDouble();
  m.k = rng->NextIndex(2) == 0
            ? static_cast<std::uint32_t>(rng->UniformInt(1, 64))
            : static_cast<std::uint32_t>(rng->NextU64());
  m.weight = rng->Uniform(-10.0, 10.0);
  return m;
}

/// Every decoded update converts exactly when the fields its opcode
/// carries fit the engine's types (32-bit ids and edges, int k); an
/// out-of-range field must fail with InvalidArgument, never be truncated
/// into another entity's id.
void ExpectConversionRespectsRanges(const Message& m) {
  const bool id_fits = m.id <= kMaxWireId;
  const bool edge_fits = m.edge <= kMaxWireId;
  bool update = true;
  bool fits = true;
  switch (m.op) {
    case OpCode::kInstallQuery:
      fits = id_fits && edge_fits &&
             m.k <= static_cast<std::uint32_t>(
                        std::numeric_limits<int>::max());
      break;
    case OpCode::kMoveQuery:
    case OpCode::kAddObject:
    case OpCode::kMoveObject:
      fits = id_fits && edge_fits;
      break;
    case OpCode::kTerminateQuery:
    case OpCode::kRemoveObject:
      fits = id_fits;
      break;
    case OpCode::kUpdateWeight:
      fits = edge_fits;
      break;
    default:
      update = false;
      break;
  }
  Result<ServeRequest> request = ToServeRequest(m);
  if (!update || !fits) {
    EXPECT_TRUE(request.status().IsInvalidArgument())
        << "op " << static_cast<int>(m.op) << " id " << m.id << " edge "
        << m.edge << " k " << m.k;
    return;
  }
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->id, m.op == OpCode::kUpdateWeight ? m.edge : m.id);
}

/// Drains every completed frame; returns false on a framing error.
bool DrainFrames(FrameDecoder* decoder,
                 std::vector<std::vector<std::uint8_t>>* out) {
  while (true) {
    Result<std::optional<std::vector<std::uint8_t>>> next = decoder->Next();
    if (!next.ok()) return false;
    if (!next->has_value()) return true;
    out->push_back(std::move(**next));
  }
}

TEST(ProtocolFuzzTest, RandomChunkingReassemblesIdentically) {
  const int iters = testing::FuzzIterations(60, 600);
  for (int it = 0; it < iters; ++it) {
    Rng rng(testing::FuzzSeed(7200 + static_cast<std::uint64_t>(it)));
    SCOPED_TRACE("iteration " + std::to_string(it));
    std::vector<std::uint8_t> stream;
    std::vector<Message> sent;
    const int frames = static_cast<int>(rng.UniformInt(1, 20));
    for (int f = 0; f < frames; ++f) {
      sent.push_back(RandomMessage(&rng));
      EncodeMessage(sent.back(), &stream);
    }
    FrameDecoder decoder;
    std::vector<std::vector<std::uint8_t>> payloads;
    std::size_t at = 0;
    while (at < stream.size()) {
      const std::size_t n = std::min(
          stream.size() - at,
          static_cast<std::size_t>(rng.UniformInt(1, 13)));
      decoder.Append(stream.data() + at, n);
      at += n;
      ASSERT_TRUE(DrainFrames(&decoder, &payloads));
    }
    ASSERT_TRUE(decoder.Finish().ok());
    ASSERT_EQ(payloads.size(), sent.size());
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      Result<Message> decoded =
          DecodeMessage(payloads[i].data(), payloads[i].size());
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(decoded->op, sent[i].op);
      ExpectConversionRespectsRanges(*decoded);
    }
  }
}

TEST(ProtocolFuzzTest, TruncationsNeverDecodePartially) {
  const int iters = testing::FuzzIterations(60, 600);
  for (int it = 0; it < iters; ++it) {
    Rng rng(testing::FuzzSeed(7300 + static_cast<std::uint64_t>(it)));
    SCOPED_TRACE("iteration " + std::to_string(it));
    std::vector<std::uint8_t> stream;
    EncodeMessage(RandomMessage(&rng), &stream);
    EncodeMessage(RandomMessage(&rng), &stream);
    const std::size_t cut =
        static_cast<std::size_t>(rng.NextIndex(stream.size()));

    FrameDecoder decoder;
    decoder.Append(stream.data(), cut);
    std::vector<std::vector<std::uint8_t>> payloads;
    ASSERT_TRUE(DrainFrames(&decoder, &payloads));
    // Whatever came out is a whole frame that decodes; the cut frame
    // stayed buffered and Finish names the truncation.
    for (const std::vector<std::uint8_t>& payload : payloads) {
      Result<Message> decoded = DecodeMessage(payload.data(), payload.size());
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      ExpectConversionRespectsRanges(*decoded);
    }
    if (decoder.BufferedBytes() > 0) {
      EXPECT_TRUE(decoder.Finish().IsInvalidArgument());
    } else {
      EXPECT_TRUE(decoder.Finish().ok());
    }
  }
}

TEST(ProtocolFuzzTest, ByteFlipsNeverCrashTheDecoder) {
  const int iters = testing::FuzzIterations(120, 1200);
  for (int it = 0; it < iters; ++it) {
    Rng rng(testing::FuzzSeed(7400 + static_cast<std::uint64_t>(it)));
    SCOPED_TRACE("iteration " + std::to_string(it));
    std::vector<std::uint8_t> stream;
    EncodeMessage(RandomMessage(&rng), &stream);
    const std::size_t flip_at =
        static_cast<std::size_t>(rng.NextIndex(stream.size()));
    stream[flip_at] ^=
        static_cast<std::uint8_t>(1u << rng.NextIndex(8));

    FrameDecoder decoder;
    decoder.Append(stream.data(), stream.size());
    Result<std::optional<std::vector<std::uint8_t>>> next = decoder.Next();
    if (!next.ok()) {
      // A header flip: fatal framing error, cleanly reported.
      EXPECT_TRUE(next.status().IsInvalidArgument());
      continue;
    }
    if (!next->has_value()) {
      // The flip grew the declared length: an incomplete frame, caught
      // at stream end.
      EXPECT_TRUE(decoder.Finish().IsInvalidArgument());
      continue;
    }
    // A payload flip: decodes to either a clean error or a (possibly
    // different) valid message — never a crash.
    Result<Message> decoded =
        DecodeMessage(next->value().data(), next->value().size());
    if (decoded.ok()) ExpectConversionRespectsRanges(*decoded);
  }
}

TEST(ProtocolFuzzTest, GarbageStreamsFailCleanly) {
  const int iters = testing::FuzzIterations(60, 600);
  for (int it = 0; it < iters; ++it) {
    Rng rng(testing::FuzzSeed(7500 + static_cast<std::uint64_t>(it)));
    SCOPED_TRACE("iteration " + std::to_string(it));
    std::vector<std::uint8_t> garbage(
        static_cast<std::size_t>(rng.UniformInt(0, 256)));
    for (std::uint8_t& b : garbage) {
      b = static_cast<std::uint8_t>(rng.NextIndex(256));
    }
    FrameDecoder decoder;
    decoder.Append(garbage.data(), garbage.size());
    // Drain until the decoder errors or wants more bytes; every returned
    // payload must decode or fail cleanly as both a message and a
    // response.
    while (true) {
      Result<std::optional<std::vector<std::uint8_t>>> next = decoder.Next();
      if (!next.ok() || !next->has_value()) break;
      Result<Message> decoded =
          DecodeMessage(next->value().data(), next->value().size());
      if (decoded.ok()) ExpectConversionRespectsRanges(*decoded);
      (void)DecodeResponse(next->value().data(), next->value().size());
    }
  }
}

}  // namespace
}  // namespace cknn::serve
