// Ingest semantics of the monitoring server (docs/pipeline.md): streamed
// SubmitBatch/Drain must produce byte-identical state to serial Tick —
// across algorithms, pipeline depths and shard counts, with and without
// intermediate drains — depth-1 SubmitBatch must return drained, and a
// rejected submit must leave the server exactly as if the call had not
// been made, including while a previous tick is still in flight. Runs
// under the `threads` label so the CI sanitize lane chews on the overlap
// with ThreadSanitizer.

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/server.h"
#include "src/gen/network_gen.h"
#include "src/gen/workload.h"
#include "tests/fuzz_util.h"
#include "tests/test_util.h"

namespace cknn {
namespace {

/// Streams `batches` through a serial reference server (Tick) and a
/// server at `depth` (SubmitBatch only, one Drain at the end), then
/// byte-compares every registered query's result.
void ExpectPipelineEqualsSerial(const RoadNetwork& network,
                                Algorithm algorithm, int shards, int depth,
                                const std::vector<UpdateBatch>& batches,
                                const std::vector<QueryId>& live) {
  MonitoringServer serial(network.SharedView(), algorithm, shards,
                          /*pipeline_depth=*/1);
  MonitoringServer pipelined(network.SharedView(), algorithm, shards,
                             depth);
  EXPECT_EQ(pipelined.pipeline_depth(), depth);
  for (const UpdateBatch& batch : batches) {
    ASSERT_TRUE(serial.Tick(batch).ok());
    ASSERT_TRUE(pipelined.SubmitBatch(batch).ok());
  }
  ASSERT_TRUE(pipelined.Drain().ok());
  EXPECT_FALSE(pipelined.InFlight());
  EXPECT_EQ(pipelined.timestamp(), serial.timestamp());
  EXPECT_EQ(pipelined.NumQueries(), serial.NumQueries());
  // GMA at shards > 1 carries the conformance tolerance
  // (docs/sharding.md); the pipeline itself adds no divergence.
  const bool exact = algorithm != Algorithm::kGma;
  for (const QueryId q : live) {
    SCOPED_TRACE("query " + std::to_string(q));
    const std::vector<Neighbor>* base = serial.ResultOf(q);
    const std::vector<Neighbor>* other = pipelined.ResultOf(q);
    ASSERT_NE(base, nullptr);
    ASSERT_NE(other, nullptr);
    testing::ExpectSameNeighbors(exact, *base, *other, "pipelined");
  }
}

/// (algorithm, pipeline depth, shard count).
using PipelineParam = std::tuple<Algorithm, int, int>;

class ServerPipelineTest : public ::testing::TestWithParam<PipelineParam> {
 protected:
  Algorithm algorithm() const { return std::get<0>(GetParam()); }
  int depth() const { return std::get<1>(GetParam()); }
  int shards() const { return std::get<2>(GetParam()); }
};

TEST_P(ServerPipelineTest, StreamedSubmitMatchesSerialTicks) {
  const std::uint64_t seed = testing::FuzzSeed(9100);
  SCOPED_TRACE("seed " + std::to_string(seed));
  const NetworkGenConfig net_config{.target_edges = 200,
                                    .seed = seed ^ 0xA71};
  WorkloadConfig wl;
  wl.num_objects = 80;
  wl.num_queries = 12;
  wl.k = 3;
  wl.edge_agility = 0.1;
  wl.object_agility = 0.25;
  wl.query_agility = 0.2;
  wl.seed = seed;
  MonitoringServer scaffold(GenerateRoadNetwork(net_config), Algorithm::kOvh);
  Workload workload(&scaffold.network(), &scaffold.spatial_index(), wl);
  std::vector<UpdateBatch> batches;
  batches.push_back(workload.Initial());
  for (int ts = 0; ts < 12; ++ts) batches.push_back(workload.Step());
  std::vector<QueryId> live;
  for (QueryId q = 0; q < static_cast<QueryId>(wl.num_queries); ++q) {
    live.push_back(q);  // The Table-2 generator never terminates queries.
  }
  ExpectPipelineEqualsSerial(scaffold.network(), algorithm(), shards(),
                             depth(), batches, live);
}

TEST_P(ServerPipelineTest, TickOnAPipelinedServerDrainsEveryStep) {
  // Tick == SubmitBatch + Drain at every depth; mixing the two styles on
  // one server must be safe, and depth-1 SubmitBatch returns drained.
  MonitoringServer server(testing::MakeGrid(4), algorithm(), shards(),
                          depth());
  ASSERT_TRUE(server.AddObject(1, NetworkPoint{0, 0.5}).ok());
  EXPECT_FALSE(server.InFlight());
  ASSERT_TRUE(server.InstallQuery(0, NetworkPoint{0, 0.1}, 1).ok());
  UpdateBatch move;
  move.objects.push_back(
      ObjectUpdate{1, NetworkPoint{0, 0.5}, NetworkPoint{5, 0.25}});
  ASSERT_TRUE(server.SubmitBatch(move).ok());
  if (depth() == 1) {
    EXPECT_FALSE(server.InFlight());
  }
  // A second submit barriers on the first; results only need a drain.
  UpdateBatch weight;
  weight.edges.push_back(EdgeUpdate{0, 2.0});
  ASSERT_TRUE(server.SubmitBatch(weight).ok());
  if (depth() == 1) {
    EXPECT_FALSE(server.InFlight());
  }
  ASSERT_TRUE(server.Drain().ok());
  const auto* result = server.ResultOf(0);
  ASSERT_NE(result, nullptr);
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].id, 1u);
  EXPECT_EQ(server.timestamp(), 4u);
}

TEST_P(ServerPipelineTest, RejectedSubmitLeavesThePipelineIntact) {
  // An invalid batch must be reported synchronously and change nothing —
  // even when a previous (valid) tick is still in flight — and the
  // pipeline must keep accepting work afterwards.
  MonitoringServer server(testing::MakeGrid(4), algorithm(), shards(),
                          depth());
  ASSERT_TRUE(server.AddObject(1, NetworkPoint{0, 0.5}).ok());
  ASSERT_TRUE(server.InstallQuery(0, NetworkPoint{0, 0.1}, 2).ok());
  UpdateBatch valid;
  valid.objects.push_back(
      ObjectUpdate{2, std::nullopt, NetworkPoint{3, 0.75}});
  ASSERT_TRUE(server.SubmitBatch(valid).ok());
  const std::uint64_t at_submit = server.timestamp();
  const bool in_flight = server.InFlight();
  EXPECT_EQ(in_flight, depth() == 2);
  // The rejected submits below may not touch the table, the clock, or the
  // in-flight tick.
  auto expect_untouched = [&] {
    EXPECT_EQ(server.timestamp(), at_submit);
    EXPECT_EQ(server.InFlight(), in_flight);
    EXPECT_EQ(server.objects().size(), 2u);
    EXPECT_EQ(server.objects().Position(2).value(), (NetworkPoint{3, 0.75}));
  };
  UpdateBatch invalid;
  invalid.queries.push_back(  // Query 9 was never installed.
      QueryUpdate{9, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
  EXPECT_TRUE(server.SubmitBatch(invalid).IsNotFound());
  expect_untouched();
  // NaN offsets and weights are rejected in-pipeline too (stage 2 runs on
  // the submitting thread).
  UpdateBatch nan_weight;
  nan_weight.edges.push_back(
      EdgeUpdate{0, std::numeric_limits<double>::quiet_NaN()});
  EXPECT_TRUE(server.SubmitBatch(nan_weight).IsInvalidArgument());
  expect_untouched();
  UpdateBatch follow_up;
  follow_up.objects.push_back(
      ObjectUpdate{2, NetworkPoint{3, 0.75}, NetworkPoint{8, 0.5}});
  ASSERT_TRUE(server.SubmitBatch(follow_up).ok());
  ASSERT_TRUE(server.Drain().ok());
  EXPECT_TRUE(server.objects().Contains(1));
  EXPECT_TRUE(server.objects().Contains(2));
  EXPECT_EQ(server.objects().Position(2).value(), (NetworkPoint{8, 0.5}));
  EXPECT_EQ(server.timestamp(), at_submit + 1);
  EXPECT_EQ(server.NumQueries(), 1u);
  ASSERT_NE(server.ResultOf(0), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsDepthsShards, ServerPipelineTest,
    ::testing::Combine(::testing::Values(Algorithm::kIma, Algorithm::kGma,
                                         Algorithm::kOvh),
                       ::testing::Values(1, 2), ::testing::Values(1, 2, 4)),
    [](const ::testing::TestParamInfo<PipelineParam>& info) {
      return std::string(AlgorithmName(std::get<0>(info.param))) + "_depth" +
             std::to_string(std::get<1>(info.param)) + "_shards" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace cknn
