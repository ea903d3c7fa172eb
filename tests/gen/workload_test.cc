#include "src/gen/workload.h"

#include "gtest/gtest.h"
#include "src/core/server.h"
#include "src/gen/network_gen.h"

namespace cknn {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest()
      : server_(GenerateRoadNetwork(
                    NetworkGenConfig{.target_edges = 400, .seed = 11}),
                Algorithm::kOvh) {}
  MonitoringServer server_;
};

TEST_F(WorkloadTest, InitialBatchMatchesCardinalities) {
  WorkloadConfig cfg;
  cfg.num_objects = 120;
  cfg.num_queries = 15;
  cfg.k = 3;
  Workload wl(&server_.network(), &server_.spatial_index(), cfg);
  const UpdateBatch batch = wl.Initial();
  EXPECT_EQ(batch.objects.size(), 120u);
  EXPECT_EQ(batch.queries.size(), 15u);
  for (const auto& qu : batch.queries) {
    EXPECT_EQ(qu.kind, QueryUpdate::Kind::kInstall);
    EXPECT_EQ(qu.k, 3);
  }
  EXPECT_TRUE(batch.edges.empty());
}

TEST_F(WorkloadTest, StepRespectsAgilities) {
  WorkloadConfig cfg;
  cfg.num_objects = 2000;
  cfg.num_queries = 500;
  cfg.object_agility = 0.10;
  cfg.query_agility = 0.20;
  cfg.edge_agility = 0.05;
  Workload wl(&server_.network(), &server_.spatial_index(), cfg);
  wl.Initial();
  const UpdateBatch step = wl.Step();
  // Binomial sampling: expect within generous bounds of the mean.
  EXPECT_NEAR(static_cast<double>(step.objects.size()), 200.0, 60.0);
  EXPECT_NEAR(static_cast<double>(step.queries.size()), 100.0, 40.0);
  EXPECT_EQ(step.edges.size(),
            static_cast<std::size_t>(0.05 * server_.network().NumEdges()));
}

TEST_F(WorkloadTest, StepUpdatesAreConsistentWithState) {
  WorkloadConfig cfg;
  cfg.num_objects = 100;
  cfg.num_queries = 10;
  Workload wl(&server_.network(), &server_.spatial_index(), cfg);
  ASSERT_TRUE(server_.Tick(wl.Initial()).ok());
  for (int ts = 0; ts < 5; ++ts) {
    // Consistency is enforced by server validation (old positions must
    // match the table exactly).
    ASSERT_TRUE(server_.Tick(wl.Step()).ok());
  }
}

TEST_F(WorkloadTest, DeterministicAcrossReplicas) {
  WorkloadConfig cfg;
  cfg.num_objects = 50;
  cfg.num_queries = 5;
  cfg.seed = 123;
  Workload a(&server_.network(), &server_.spatial_index(), cfg);
  Workload b(&server_.network(), &server_.spatial_index(), cfg);
  const UpdateBatch ia = a.Initial();
  const UpdateBatch ib = b.Initial();
  ASSERT_EQ(ia.objects.size(), ib.objects.size());
  for (std::size_t i = 0; i < ia.objects.size(); ++i) {
    EXPECT_EQ(*ia.objects[i].new_pos, *ib.objects[i].new_pos);
  }
  const UpdateBatch sa = a.Step();
  const UpdateBatch sb = b.Step();
  ASSERT_EQ(sa.objects.size(), sb.objects.size());
  ASSERT_EQ(sa.edges.size(), sb.edges.size());
  for (std::size_t i = 0; i < sa.edges.size(); ++i) {
    EXPECT_EQ(sa.edges[i].edge, sb.edges[i].edge);
    EXPECT_DOUBLE_EQ(sa.edges[i].new_weight, sb.edges[i].new_weight);
  }
}

TEST_F(WorkloadTest, GenerationIsIndependentOfLiveNetworkWeights) {
  // Regression for the pipelined-ingest overlap (docs/pipeline.md): the
  // generator must be a pure function of its seed and the updates it
  // emitted itself — never of the live network's weights, which a
  // pipelined server's shard 0 mutates while the next batch is being
  // generated. The weight chain is tracked through the workload's shadow:
  // mutating the network mid-run must not change the stream.
  WorkloadConfig cfg;
  cfg.num_objects = 50;
  cfg.num_queries = 5;
  cfg.edge_agility = 0.3;
  cfg.seed = 321;
  RoadNetwork mutated = server_.network().SharedView();
  Workload reference(&server_.network(), &server_.spatial_index(), cfg);
  Workload shadowed(&mutated, &server_.spatial_index(), cfg);
  (void)reference.Initial();
  (void)shadowed.Initial();
  for (int ts = 0; ts < 4; ++ts) {
    // Scribble over every live weight the shadowed workload could read.
    for (EdgeId e = 0; e < mutated.NumEdges(); ++e) {
      ASSERT_TRUE(mutated.SetWeight(e, 1e6 + static_cast<double>(e)).ok());
    }
    const UpdateBatch want = reference.Step();
    const UpdateBatch got = shadowed.Step();
    ASSERT_TRUE(want == got) << "tick " << ts;
  }
}

TEST_F(WorkloadTest, ZeroAgilitiesFreezeEverything) {
  WorkloadConfig cfg;
  cfg.num_objects = 50;
  cfg.num_queries = 5;
  cfg.object_agility = 0.0;
  cfg.query_agility = 0.0;
  cfg.edge_agility = 0.0;
  Workload wl(&server_.network(), &server_.spatial_index(), cfg);
  wl.Initial();
  const UpdateBatch step = wl.Step();
  EXPECT_TRUE(step.Empty());
}

TEST_F(WorkloadTest, BrinkhoffWorkloadDrivesServer) {
  BrinkhoffWorkload::Config cfg;
  cfg.num_objects = 60;
  cfg.num_queries = 8;
  cfg.k = 2;
  cfg.generator.churn = 0.1;
  BrinkhoffWorkload wl(&server_.network(), cfg);
  ASSERT_TRUE(server_.Tick(wl.Initial()).ok());
  EXPECT_EQ(server_.monitor().NumQueries(), 8u);
  EXPECT_EQ(server_.objects().size(), 60u);
  for (int ts = 0; ts < 5; ++ts) {
    ASSERT_TRUE(server_.Tick(wl.Step()).ok());
    EXPECT_EQ(server_.monitor().NumQueries(), 8u);
    EXPECT_EQ(server_.objects().size(), 60u);
  }
}

}  // namespace
}  // namespace cknn
