// ServingFrontEnd semantics (docs/serving.md): bounded-queue admission
// control (ResourceExhausted, never abort), blocking back-pressure and its
// release, drain-on-shutdown, non-aborting reads, and per-request
// validation with the server's own rules that counts-and-drops instead of
// vetoing the batch, one engine tick per window.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/server.h"
#include "src/gen/network_gen.h"
#include "src/serve/front_end.h"

namespace cknn {
namespace {

MonitoringServer MakeServer(int shards = 1, int pipeline_depth = 2) {
  const NetworkGenConfig net{.target_edges = 200, .seed = 7};
  return MonitoringServer(GenerateRoadNetwork(net), Algorithm::kIma, shards,
                          pipeline_depth);
}

ServeRequest AddObject(std::uint64_t id, EdgeId edge, double t) {
  ServeRequest r;
  r.op = ServeRequest::Op::kAddObject;
  r.id = id;
  r.pos = NetworkPoint{edge, t};
  return r;
}

ServeRequest MoveObject(std::uint64_t id, EdgeId edge, double t) {
  ServeRequest r;
  r.op = ServeRequest::Op::kMoveObject;
  r.id = id;
  r.pos = NetworkPoint{edge, t};
  return r;
}

ServeRequest RemoveObject(std::uint64_t id) {
  ServeRequest r;
  r.op = ServeRequest::Op::kRemoveObject;
  r.id = id;
  return r;
}

ServeRequest InstallQuery(std::uint64_t id, EdgeId edge, double t, int k) {
  ServeRequest r;
  r.op = ServeRequest::Op::kInstallQuery;
  r.id = id;
  r.pos = NetworkPoint{edge, t};
  r.k = k;
  return r;
}

ServeRequest UpdateWeight(std::uint64_t edge, double weight) {
  ServeRequest r;
  r.op = ServeRequest::Op::kUpdateWeight;
  r.id = edge;
  r.weight = weight;
  return r;
}

/// Status codes of `BuildBatch`'s rejections of `window`, in window order.
std::vector<StatusCode> RejectedCodes(const std::vector<ServeRequest>& window,
                                      const MonitoringServer& server) {
  std::vector<StatusCode> codes;
  for (const ServingFrontEnd::Rejection& r :
       ServingFrontEnd::BuildBatch(window, server).rejected) {
    codes.push_back(r.status.code());
  }
  return codes;
}

/// Submits `window` without a pump and flushes it.
void SubmitWindow(ServingFrontEnd* fe,
                  const std::vector<ServeRequest>& window) {
  for (const ServeRequest& r : window) ASSERT_TRUE(fe->TrySubmit(r).ok());
  const Status flushed = fe->Flush();
  ASSERT_TRUE(flushed.ok()) << flushed.ToString();
}

TEST(FrontEndTest, QueueFullRejectsWithResourceExhausted) {
  MonitoringServer server = MakeServer();
  ServingConfig config;
  config.queue_capacity = 4;
  ServingFrontEnd fe(&server, config);  // No pump: the queue stays put.
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(fe.TrySubmit(AddObject(i, 0, 0.25)).ok());
  }
  EXPECT_EQ(fe.QueueDepth(), 4u);
  const Status full = fe.TrySubmit(AddObject(9, 0, 0.5));
  EXPECT_TRUE(full.IsResourceExhausted()) << full.ToString();
  EXPECT_EQ(fe.QueueDepth(), 4u);

  // Folding the window frees the queue: admission resumes.
  ASSERT_TRUE(fe.Flush().ok());
  EXPECT_EQ(fe.QueueDepth(), 0u);
  EXPECT_TRUE(fe.TrySubmit(AddObject(9, 0, 0.5)).ok());
  ASSERT_TRUE(fe.Flush().ok());

  const ServingStats stats = fe.Stats();
  EXPECT_EQ(stats.accepted, 5u);
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.applied, 5u);
  EXPECT_EQ(stats.max_queue_depth, 4u);
}

TEST(FrontEndTest, SubmitBlocksUntilSpaceFreesUp) {
  MonitoringServer server = MakeServer();
  ServingConfig config;
  config.queue_capacity = 2;
  ServingFrontEnd fe(&server, config);  // No pump.
  ASSERT_TRUE(fe.TrySubmit(AddObject(0, 0, 0.25)).ok());
  ASSERT_TRUE(fe.TrySubmit(AddObject(1, 0, 0.75)).ok());

  std::atomic<bool> released{false};
  std::thread producer([&] {
    const Status blocked = fe.Submit(AddObject(2, 1, 0.5));
    EXPECT_TRUE(blocked.ok()) << blocked.ToString();
    released.store(true);
  });
  // Submit cannot return while the queue is full — only Flush (below)
  // frees a slot, so this read is race-free in its false phase.
  EXPECT_FALSE(released.load());
  ASSERT_TRUE(fe.Flush().ok());
  producer.join();
  EXPECT_TRUE(released.load());
  ASSERT_TRUE(fe.Flush().ok());
  EXPECT_EQ(fe.Stats().applied, 3u);
}

TEST(FrontEndTest, ShutdownDrainsEverythingAccepted) {
  MonitoringServer server = MakeServer();
  ServingFrontEnd fe(&server);
  fe.Start();
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(fe.Submit(AddObject(i, static_cast<EdgeId>(i % 5), 0.5))
                    .ok());
  }
  fe.Shutdown();
  const ServingStats stats = fe.Stats();
  EXPECT_EQ(stats.accepted, 10u);
  EXPECT_EQ(stats.applied, 10u);
  EXPECT_EQ(fe.QueueDepth(), 0u);

  // The front end is closed for business but stays readable.
  EXPECT_TRUE(fe.TrySubmit(AddObject(99, 0, 0.5)).IsFailedPrecondition());
  EXPECT_TRUE(fe.Submit(AddObject(99, 0, 0.5)).IsFailedPrecondition());
  EXPECT_TRUE(fe.ReadResult(12345).status().IsNotFound());
  fe.Shutdown();  // Idempotent.
}

TEST(FrontEndTest, ReadYourWritesAfterFlush) {
  MonitoringServer server = MakeServer();
  ServingFrontEnd fe(&server);
  fe.Start();
  ASSERT_TRUE(fe.Submit(InstallQuery(5, 0, 0.5, 2)).ok());
  ASSERT_TRUE(fe.Submit(AddObject(1, 0, 0.25)).ok());
  ASSERT_TRUE(fe.Submit(AddObject(2, 0, 0.75)).ok());
  ASSERT_TRUE(fe.Flush().ok());

  Result<std::vector<Neighbor>> result = fe.ReadResult(5);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), 2u);
  EXPECT_TRUE(fe.ReadResult(12345).status().IsNotFound());
  fe.Shutdown();
}

TEST(FrontEndTest, InvalidRequestsAreCountedAndDropped) {
  MonitoringServer server = MakeServer();
  ServingFrontEnd fe(&server);  // No pump: windows are explicit.
  const auto no_edge = static_cast<EdgeId>(server.network().NumEdges());

  // Unknown move/remove, double install.
  const std::vector<ServeRequest> first = {
      MoveObject(42, 0, 0.5), RemoveObject(43), InstallQuery(1, 0, 0.5, 1),
      InstallQuery(1, 1, 0.5, 1)};
  EXPECT_EQ(RejectedCodes(first, server),
            (std::vector<StatusCode>{StatusCode::kNotFound,
                                     StatusCode::kNotFound,
                                     StatusCode::kAlreadyExists}));
  SubmitWindow(&fe, first);
  ServingStats stats = fe.Stats();
  EXPECT_EQ(stats.rejected_invalid, 3u);
  EXPECT_EQ(stats.applied, 1u);  // The first install.
  EXPECT_EQ(stats.ticks, 1u);

  // The rules the server applies to a raw batch: an edge id the network
  // does not have, k = 0, a position off the network, a NaN weight. The
  // valid add beside them still applies, in the window's one tick.
  const std::vector<ServeRequest> second = {
      AddObject(7, 0, 0.5), UpdateWeight(std::uint64_t{1} << 30, 2.0),
      InstallQuery(2, 0, 0.5, 0), AddObject(8, no_edge, 0.5),
      UpdateWeight(0, std::nan(""))};
  EXPECT_EQ(RejectedCodes(second, server),
            (std::vector<StatusCode>{StatusCode::kNotFound,
                                     StatusCode::kInvalidArgument,
                                     StatusCode::kInvalidArgument,
                                     StatusCode::kInvalidArgument}));
  SubmitWindow(&fe, second);
  stats = fe.Stats();
  EXPECT_EQ(stats.rejected_invalid, 7u);
  EXPECT_EQ(stats.applied, 2u);
  EXPECT_EQ(stats.ticks, 2u);
  EXPECT_FALSE(fe.last_error().ok());
  EXPECT_TRUE(server.objects().Contains(7));
  EXPECT_FALSE(server.objects().Contains(8));
  EXPECT_FALSE(server.shards().IsRegistered(2));
}

// Each request is checked against its entity's state after the requests
// the window admitted, never after one it refused: the valid move after a
// refused one applies, exactly as it does in a window of its own.
TEST(FrontEndTest, RejectedMoveDoesNotPoisonTheNextMove) {
  MonitoringServer server = MakeServer();
  ServingFrontEnd fe(&server);
  SubmitWindow(&fe, {AddObject(5, 0, 0.5)});
  const auto no_edge = static_cast<EdgeId>(server.network().NumEdges());

  SubmitWindow(&fe, {MoveObject(5, no_edge, 0.5), MoveObject(5, 1, 0.25)});
  const ServingStats stats = fe.Stats();
  EXPECT_EQ(stats.rejected_invalid, 1u);
  EXPECT_EQ(stats.applied, 2u);
  EXPECT_EQ(stats.ticks, 2u);
  Result<NetworkPoint> pos = server.objects().Position(5);
  ASSERT_TRUE(pos.ok());
  EXPECT_EQ(*pos, (NetworkPoint{1, 0.25}));
}

// ServeRequest ids are 64-bit, engine ids 32-bit: an in-process producer's
// id above 2^32 - 1 is refused, never truncated onto another entity
// (object 2^32 + 9 onto object 9, edge 2^32 + 3 onto edge 3).
TEST(FrontEndTest, WideIdsAreRejectedWithoutAliasing) {
  MonitoringServer server = MakeServer();
  ServingFrontEnd fe(&server);
  const std::uint64_t wide = std::uint64_t{1} << 32;
  const double weight3 = server.network().edge(3).weight;
  const std::vector<ServeRequest> window = {
      AddObject(wide + 9, 0, 0.5), UpdateWeight(wide + 3, weight3 + 1.0),
      InstallQuery(wide + 1, 0, 0.5, 1), InstallQuery(2, 0, 0.5, 1)};
  EXPECT_EQ(RejectedCodes(window, server),
            (std::vector<StatusCode>{StatusCode::kInvalidArgument,
                                     StatusCode::kInvalidArgument,
                                     StatusCode::kInvalidArgument}));
  SubmitWindow(&fe, window);
  const ServingStats stats = fe.Stats();
  EXPECT_EQ(stats.rejected_invalid, 3u);
  EXPECT_EQ(stats.applied, 1u);
  EXPECT_FALSE(server.objects().Contains(9));
  EXPECT_EQ(server.objects().size(), 0u);
  EXPECT_EQ(server.network().edge(3).weight, weight3);
  EXPECT_FALSE(server.shards().IsRegistered(1));
  EXPECT_TRUE(server.shards().IsRegistered(2));
}

// Regression: a rejected request is dropped alone, so Flush() returns OK
// and the counters look like an ordinary validation drop — the latched
// last_error() is the only witness. Report consumers (the load scenario's
// `engine_error` field) must carry it; reading Stats() alone reproduces
// the old silent-failure path.
TEST(FrontEndTest, OkFlushDoesNotClearTheEngineErrorWitness) {
  MonitoringServer server = MakeServer();
  ServingFrontEnd fe(&server);
  ASSERT_TRUE(fe.TrySubmit(UpdateWeight(std::uint64_t{1} << 30, 2.0)).ok());
  const Status flushed = fe.Flush();
  EXPECT_TRUE(flushed.ok()) << flushed.ToString();
  EXPECT_FALSE(fe.last_error().ok());
  fe.Shutdown();
  // Survives the final drain, so post-run reporting still sees it.
  EXPECT_FALSE(fe.last_error().ok());
}

TEST(FrontEndTest, LatencyStatsArePopulated) {
  MonitoringServer server = MakeServer();
  ServingFrontEnd fe(&server);
  fe.Start();
  for (std::uint64_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(fe.Submit(AddObject(i, static_cast<EdgeId>(i % 7), 0.5))
                    .ok());
  }
  ASSERT_TRUE(fe.Flush().ok());
  // ReadResult drains the engine, retiring any latencies still pending
  // behind the depth-2 pipeline.
  EXPECT_TRUE(fe.ReadResult(0).status().IsNotFound());
  const ServingStats stats = fe.Stats();
  EXPECT_EQ(stats.latency_samples, 32u);
  EXPECT_GE(stats.latency_p50_sec, 0.0);
  EXPECT_LE(stats.latency_p50_sec, stats.latency_p95_sec);
  EXPECT_LE(stats.latency_p95_sec, stats.latency_p99_sec);
  EXPECT_LE(stats.latency_p99_sec, stats.latency_max_sec);
  fe.Shutdown();
}

TEST(FrontEndTest, TryAccessorsFailCleanlyWhileInFlight) {
  MonitoringServer server = MakeServer(/*shards=*/2, /*pipeline_depth=*/2);
  UpdateBatch batch;
  batch.queries.push_back(
      QueryUpdate{0, QueryUpdate::Kind::kInstall, NetworkPoint{0, 0.5}, 1});
  batch.objects.push_back(
      ObjectUpdate{0, std::nullopt, NetworkPoint{0, 0.25}});
  ASSERT_TRUE(server.SubmitBatch(batch).ok());
  ASSERT_TRUE(server.InFlight());

  // The CHECK-guarded accessors would abort here; the Try* variants
  // answer FailedPrecondition instead (the client-reachable path).
  const std::vector<Neighbor>* neighbors = nullptr;
  EXPECT_TRUE(server.TryResultOf(0, &neighbors).IsFailedPrecondition());
  EXPECT_TRUE(server.TryNumQueries().status().IsFailedPrecondition());
  EXPECT_TRUE(
      server.TryMonitorMemoryBytes().status().IsFailedPrecondition());

  ASSERT_TRUE(server.Drain().ok());
  ASSERT_TRUE(server.TryResultOf(0, &neighbors).ok());
  ASSERT_NE(neighbors, nullptr);
  Result<std::size_t> queries = server.TryNumQueries();
  ASSERT_TRUE(queries.ok());
  EXPECT_EQ(*queries, 1u);
  EXPECT_TRUE(server.TryMonitorMemoryBytes().ok());
}

}  // namespace
}  // namespace cknn
