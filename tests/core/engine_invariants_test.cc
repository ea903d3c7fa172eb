// Structural property tests: ImaEngine::CheckInvariants() must hold after
// every timestamp of randomized mixed workloads, both for IMA's per-query
// engine and for the engine GMA runs over its active nodes; for GMA, so
// must Gma::CheckInvariants() over its user-query influence lists.

#include <memory>

#include "gtest/gtest.h"
#include "src/core/gma.h"
#include "src/core/ima.h"
#include "src/core/server.h"
#include "src/gen/network_gen.h"
#include "src/gen/workload.h"
#include "src/util/macros.h"
#include "tests/test_util.h"

namespace cknn {
namespace {

struct InvariantCase {
  std::string name;
  Algorithm algorithm;
  double edge_agility;
  double object_agility;
  double query_agility;
  std::uint64_t seed;
};

// Used by real gtest via ADL; the vendored shim prints params differently.
[[maybe_unused]] void PrintTo(const InvariantCase& c, std::ostream* os) {
  *os << c.name;
}

class EngineInvariantsTest : public ::testing::TestWithParam<InvariantCase> {
};

const ImaEngine& EngineOf(MonitoringServer* server) {
  if (server->algorithm() == Algorithm::kIma) {
    return dynamic_cast<Ima&>(server->monitor()).engine();
  }
  return dynamic_cast<Gma&>(server->monitor()).engine();
}

/// The engine's invariants and, under GMA, the user-query bookkeeping's.
Status CheckAll(MonitoringServer* server) {
  CKNN_RETURN_NOT_OK(EngineOf(server).CheckInvariants());
  if (server->algorithm() != Algorithm::kGma) return Status::OK();
  return dynamic_cast<Gma&>(server->monitor()).CheckInvariants();
}

TEST_P(EngineInvariantsTest, HoldAtEveryTimestamp) {
  const InvariantCase& c = GetParam();
  MonitoringServer server(
      GenerateRoadNetwork(
          NetworkGenConfig{.target_edges = 350, .seed = c.seed}),
      c.algorithm);
  WorkloadConfig cfg;
  cfg.num_objects = 90;
  cfg.num_queries = 12;
  cfg.k = 5;
  cfg.edge_agility = c.edge_agility;
  cfg.object_agility = c.object_agility;
  cfg.query_agility = c.query_agility;
  cfg.seed = c.seed * 11;
  Workload wl(&server.network(), &server.spatial_index(), cfg);
  ASSERT_TRUE(server.Tick(wl.Initial()).ok());
  const Status initial = CheckAll(&server);
  ASSERT_TRUE(initial.ok()) << initial.ToString();
  for (int ts = 0; ts < 12; ++ts) {
    ASSERT_TRUE(server.Tick(wl.Step()).ok());
    const Status st = CheckAll(&server);
    ASSERT_TRUE(st.ok()) << "ts " << ts << ": " << st.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EngineInvariantsTest,
    ::testing::Values(
        InvariantCase{"ima_mixed", Algorithm::kIma, 0.05, 0.1, 0.1, 1},
        InvariantCase{"ima_heavy_weights", Algorithm::kIma, 0.4, 0.0, 0.0, 2},
        InvariantCase{"ima_heavy_movement", Algorithm::kIma, 0.0, 0.4, 0.4,
                      3},
        InvariantCase{"gma_mixed", Algorithm::kGma, 0.05, 0.1, 0.1, 4},
        InvariantCase{"gma_heavy_weights", Algorithm::kGma, 0.4, 0.0, 0.0,
                      5},
        InvariantCase{"gma_heavy_movement", Algorithm::kGma, 0.0, 0.4, 0.4,
                      6}),
    [](const ::testing::TestParamInfo<InvariantCase>& info) {
      return info.param.name;
    });

TEST(EngineInvariantsBrinkhoffTest, HoldUnderChurn) {
  RoadNetwork base =
      GenerateRoadNetwork(NetworkGenConfig{.target_edges = 300, .seed = 9});
  MonitoringServer server(std::move(base), Algorithm::kIma);
  BrinkhoffWorkload::Config cfg;
  cfg.num_objects = 70;
  cfg.num_queries = 10;
  cfg.k = 3;
  cfg.edge_agility = 0.05;
  cfg.generator.churn = 0.15;
  cfg.generator.seed = 17;
  BrinkhoffWorkload wl(&server.network(), cfg);
  ASSERT_TRUE(server.Tick(wl.Initial()).ok());
  auto& engine = dynamic_cast<Ima&>(server.monitor()).engine();
  for (int ts = 0; ts < 10; ++ts) {
    ASSERT_TRUE(server.Tick(wl.Step()).ok());
    const Status st = engine.CheckInvariants();
    ASSERT_TRUE(st.ok()) << "ts " << ts << ": " << st.ToString();
  }
}

TEST(EngineStatsTest, CountersMoveSensibly) {
  MonitoringServer server(
      GenerateRoadNetwork(NetworkGenConfig{.target_edges = 300, .seed = 3}),
      Algorithm::kIma);
  WorkloadConfig cfg;
  cfg.num_objects = 80;
  cfg.num_queries = 10;
  cfg.k = 4;
  cfg.seed = 77;
  Workload wl(&server.network(), &server.spatial_index(), cfg);
  ASSERT_TRUE(server.Tick(wl.Initial()).ok());
  auto& engine = dynamic_cast<Ima&>(server.monitor()).engine();
  const auto initial_recomputes = engine.stats().full_recomputes;
  EXPECT_EQ(initial_recomputes, 10u);  // One per installed query.
  for (int ts = 0; ts < 5; ++ts) ASSERT_TRUE(server.Tick(wl.Step()).ok());
  const auto& stats = engine.stats();
  EXPECT_GT(stats.rebuilds, 0u);
  EXPECT_GT(stats.updates_routed + stats.updates_ignored, 0u);
}

}  // namespace
}  // namespace cknn
