// The sharding determinism guarantee (docs/sharding.md, docs/pipeline.md):
// replaying one update stream through monitoring servers with different
// worker-shard counts AND ingest pipeline depths produces identical
// per-timestamp k-NN results and merged metrics — byte-identical for
// IMA/OVH, identical within the conformance distance tolerance for GMA
// (whose active-node grouping is shard-local) — the parallel decomposition
// and the ingest overlap are execution details, never semantic ones.
// Pinned on the committed golden trace at shards {1, 2, 8} x pipeline
// depth {1, 2} and on a randomized recorded scenario (fuzz_util seeds);
// the pipelined servers are additionally fed the whole stream through
// SubmitBatch with a single final Drain, so genuine multi-tick overlap is
// exercised (and raced under the CI TSan lane). Runs under the
// `conformance` CTest label.

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/server.h"
#include "src/gen/network_gen.h"
#include "src/gen/workload.h"
#include "src/trace/trace.h"
#include "tests/fuzz_util.h"
#include "tests/test_util.h"

namespace cknn {
namespace {

constexpr int kShardCounts[] = {1, 2, 8};
constexpr int kPipelineDepths[] = {1, 2};

std::string GoldenPath() {
  return std::string(CKNN_TEST_DATA_DIR) + "/golden.trace";
}

/// Mirrors the server's aggregation semantics to know which queries are
/// registered after a tick (install adds, terminate removes).
void UpdateLiveQueries(const UpdateBatch& batch, std::set<QueryId>* live) {
  const UpdateBatch agg = MonitoringServer::AggregateBatch(batch);
  for (const QueryUpdate& u : agg.queries) {
    switch (u.kind) {
      case QueryUpdate::Kind::kInstall:
        live->insert(u.id);
        break;
      case QueryUpdate::Kind::kTerminate:
        live->erase(u.id);
        break;
      case QueryUpdate::Kind::kMove:
        break;
    }
  }
}

/// Feeds `batches` to one server per (shard count x pipeline depth)
/// configuration in lockstep and asserts equal results and merged metrics
/// after every tick. For IMA and OVH the comparison is byte-exact
/// (per-query maintenance is independent of co-resident queries). GMA's
/// active-node grouping is shard-local — a sequence endpoint monitors
/// max{q.k} over the *shard's* queries only, so a candidate's distance can
/// be derived through a different (equally shortest) endpoint path and
/// differ in the last ulps; its guarantee is the conformance tolerance
/// (docs/sharding.md), asserted per rank. Afterwards, one fully streamed
/// pipelined server per shard count (SubmitBatch for every batch, a single
/// Drain at the end — genuine multi-tick overlap) is compared against the
/// serial baseline's final state.
void ExpectShardCountInvariance(const RoadNetwork& network,
                                Algorithm algorithm,
                                const std::vector<UpdateBatch>& batches) {
  const bool exact = algorithm != Algorithm::kGma;
  std::vector<std::unique_ptr<MonitoringServer>> servers;
  std::vector<std::string> configs;
  for (const int shards : kShardCounts) {
    for (const int depth : kPipelineDepths) {
      servers.push_back(std::make_unique<MonitoringServer>(
          network.SharedView(), algorithm, shards, depth));
      EXPECT_EQ(servers.back()->num_shards(), shards);
      EXPECT_EQ(servers.back()->pipeline_depth(), depth);
      configs.push_back("shards=" + std::to_string(shards) +
                        " depth=" + std::to_string(depth));
    }
  }
  std::set<QueryId> live;
  for (std::size_t tick = 0; tick < batches.size(); ++tick) {
    SCOPED_TRACE("tick " + std::to_string(tick));
    for (auto& server : servers) {
      ASSERT_TRUE(server->Tick(batches[tick]).ok());
    }
    UpdateLiveQueries(batches[tick], &live);
    for (const QueryId q : live) {
      SCOPED_TRACE("query " + std::to_string(q));
      const std::vector<Neighbor>* base = servers[0]->ResultOf(q);
      ASSERT_NE(base, nullptr);
      for (std::size_t i = 1; i < servers.size(); ++i) {
        const std::vector<Neighbor>* other = servers[i]->ResultOf(q);
        ASSERT_NE(other, nullptr) << configs[i] << " lost the query";
        testing::ExpectSameNeighbors(exact, *base, *other, configs[i]);
      }
    }
    // Merged metrics agree in lockstep too.
    for (std::size_t i = 1; i < servers.size(); ++i) {
      EXPECT_EQ(servers[i]->NumQueries(), servers[0]->NumQueries());
      EXPECT_EQ(servers[i]->timestamp(), servers[0]->timestamp());
    }
    EXPECT_EQ(servers[0]->NumQueries(), live.size());
  }
  // Streamed pipelined replay: no intermediate drains, so tick t+1's
  // aggregation/validation really overlaps tick t's maintenance.
  for (const int shards : kShardCounts) {
    const std::string who =
        "streamed shards=" + std::to_string(shards) + " depth=2";
    SCOPED_TRACE(who);
    MonitoringServer streamed(network.SharedView(), algorithm, shards,
                              /*pipeline_depth=*/2);
    for (const UpdateBatch& batch : batches) {
      ASSERT_TRUE(streamed.SubmitBatch(batch).ok());
    }
    ASSERT_TRUE(streamed.Drain().ok());
    EXPECT_EQ(streamed.timestamp(), servers[0]->timestamp());
    EXPECT_EQ(streamed.NumQueries(), servers[0]->NumQueries());
    for (const QueryId q : live) {
      SCOPED_TRACE("query " + std::to_string(q));
      const std::vector<Neighbor>* base = servers[0]->ResultOf(q);
      const std::vector<Neighbor>* other = streamed.ResultOf(q);
      ASSERT_NE(base, nullptr);
      ASSERT_NE(other, nullptr) << who << " lost the query";
      testing::ExpectSameNeighbors(exact, *base, *other, who);
    }
  }
}

class ShardDeterminismTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(ShardDeterminismTest, GoldenTraceIsShardCountInvariant) {
  Result<Trace> trace = ReadTrace(GoldenPath());
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ASSERT_GT(trace->batches.size(), 1u);
  ExpectShardCountInvariance(trace->network, GetParam(), trace->batches);
}

TEST_P(ShardDeterminismTest, RandomizedScenarioIsShardCountInvariant) {
  const std::uint64_t seed = testing::FuzzSeed(7000);
  SCOPED_TRACE("seed " + std::to_string(seed));
  // Mixed workload: many query ids so every shard of 8 owns several, plus
  // object movement and weight fluctuation.
  const NetworkGenConfig net_config{.target_edges = 250,
                                    .seed = seed ^ 0x5AD5};
  WorkloadConfig wl;
  wl.num_objects = 120;
  wl.num_queries = 24;
  wl.k = 3 + static_cast<int>(seed % 3);
  wl.edge_agility = 0.1;
  wl.object_agility = 0.2;
  wl.query_agility = 0.15;
  wl.seed = seed;
  MonitoringServer scaffold(GenerateRoadNetwork(net_config), Algorithm::kOvh);
  Workload workload(&scaffold.network(), &scaffold.spatial_index(), wl);
  std::vector<UpdateBatch> batches;
  batches.push_back(workload.Initial());
  const int steps = testing::FuzzIterations(8, 40);
  for (int ts = 0; ts < steps; ++ts) batches.push_back(workload.Step());
  ExpectShardCountInvariance(scaffold.network(), GetParam(), batches);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ShardDeterminismTest,
                         ::testing::Values(Algorithm::kIma, Algorithm::kGma,
                                           Algorithm::kOvh),
                         [](const ::testing::TestParamInfo<Algorithm>& info) {
                           return std::string(AlgorithmName(info.param));
                         });

}  // namespace
}  // namespace cknn
