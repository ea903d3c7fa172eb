// The central correctness property of the reproduction: IMA, GMA and OVH
// must report identical k-NN sets (as distance multisets) at every
// timestamp of any workload. OVH recomputes from scratch with the Fig. 2
// algorithm (itself validated against a brute-force oracle in
// knn_search_test.cc), so agreement here exercises the entire incremental
// machinery of Sections 4 and 5: influence-list routing, expansion-tree
// pruning/adjustment/re-rooting, sequence grouping, and active-node
// monitoring.

#include <memory>
#include <string>
#include <tuple>

#include "gtest/gtest.h"
#include "src/core/ima.h"
#include "src/core/server.h"
#include "src/gen/network_gen.h"
#include "src/gen/workload.h"
#include "tests/test_util.h"

namespace cknn {
namespace {

struct EquivalenceCase {
  std::string name;
  int k;
  Distribution object_distribution;
  Distribution query_distribution;
  double edge_agility;
  double object_agility;
  double query_agility;
  double speed = 1.0;
  std::uint64_t seed = 1;
};

// Used by real gtest via ADL; the vendored shim prints params differently.
[[maybe_unused]] void PrintTo(const EquivalenceCase& c, std::ostream* os) {
  *os << c.name;
}

class EquivalenceTest : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(EquivalenceTest, AllAlgorithmsAgreeOverTime) {
  const EquivalenceCase& c = GetParam();
  const NetworkGenConfig net_config{.target_edges = 300, .seed = c.seed};
  WorkloadConfig wl;
  wl.num_objects = 80;
  wl.num_queries = 12;
  wl.k = c.k;
  wl.object_distribution = c.object_distribution;
  wl.query_distribution = c.query_distribution;
  wl.edge_agility = c.edge_agility;
  wl.object_agility = c.object_agility;
  wl.query_agility = c.query_agility;
  wl.object_speed = c.speed;
  wl.query_speed = c.speed;
  wl.seed = c.seed * 1000 + 17;

  // One server + one workload replica per algorithm; identical seeds make
  // the update streams byte-identical.
  const Algorithm algos[3] = {Algorithm::kOvh, Algorithm::kIma,
                              Algorithm::kGma};
  std::unique_ptr<MonitoringServer> servers[3];
  std::unique_ptr<Workload> workloads[3];
  for (int i = 0; i < 3; ++i) {
    servers[i] = std::make_unique<MonitoringServer>(
        GenerateRoadNetwork(net_config), algos[i]);
    workloads[i] = std::make_unique<Workload>(
        &servers[i]->network(), &servers[i]->spatial_index(), wl);
    ASSERT_TRUE(servers[i]->Tick(workloads[i]->Initial()).ok());
  }
  for (int ts = 0; ts <= 10; ++ts) {
    for (QueryId q = 0; q < wl.num_queries; ++q) {
      const auto* ovh = servers[0]->ResultOf(q);
      const auto* ima = servers[1]->ResultOf(q);
      const auto* gma = servers[2]->ResultOf(q);
      ASSERT_NE(ovh, nullptr);
      ASSERT_NE(ima, nullptr);
      ASSERT_NE(gma, nullptr);
      SCOPED_TRACE("ts=" + std::to_string(ts) + " q=" + std::to_string(q));
      testing::ExpectSameDistances(*ima, *ovh);
      testing::ExpectSameDistances(*gma, *ovh);
    }
    if (ts == 10) break;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(servers[i]->Tick(workloads[i]->Step()).ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, EquivalenceTest,
    ::testing::Values(
        EquivalenceCase{"k1_uniform_all_dynamics", 1, Distribution::kUniform,
                        Distribution::kUniform, 0.04, 0.2, 0.2, 1.0, 1},
        EquivalenceCase{"k5_default_mix", 5, Distribution::kUniform,
                        Distribution::kGaussian, 0.04, 0.1, 0.1, 1.0, 2},
        EquivalenceCase{"k20_more_than_density", 20, Distribution::kUniform,
                        Distribution::kGaussian, 0.04, 0.1, 0.1, 1.0, 3},
        EquivalenceCase{"gaussian_objects", 8, Distribution::kGaussian,
                        Distribution::kGaussian, 0.04, 0.1, 0.1, 1.0, 4},
        EquivalenceCase{"high_edge_agility", 5, Distribution::kUniform,
                        Distribution::kGaussian, 0.3, 0.05, 0.05, 1.0, 5},
        EquivalenceCase{"static_objects_moving_queries", 5,
                        Distribution::kUniform, Distribution::kUniform, 0.0,
                        0.0, 0.4, 2.0, 6},
        EquivalenceCase{"moving_objects_static_queries", 5,
                        Distribution::kUniform, Distribution::kUniform, 0.0,
                        0.4, 0.0, 2.0, 7},
        EquivalenceCase{"weights_only", 10, Distribution::kUniform,
                        Distribution::kUniform, 0.5, 0.0, 0.0, 1.0, 8},
        EquivalenceCase{"fast_movement", 3, Distribution::kUniform,
                        Distribution::kGaussian, 0.04, 0.3, 0.3, 4.0, 9}),
    [](const ::testing::TestParamInfo<EquivalenceCase>& info) {
      return info.param.name;
    });

/// Brinkhoff workloads add appearing/disappearing objects and queries.
class BrinkhoffEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(BrinkhoffEquivalenceTest, AllAlgorithmsAgree) {
  RoadNetwork base = GenerateRoadNetwork(NetworkGenConfig{
      .target_edges = 300, .seed = static_cast<std::uint64_t>(GetParam())});
  BrinkhoffWorkload::Config cfg;
  cfg.num_objects = 60;
  cfg.num_queries = 10;
  cfg.k = 4;
  cfg.edge_agility = 0.05;
  cfg.generator.churn = 0.1;
  cfg.generator.seed = static_cast<std::uint64_t>(GetParam()) * 31;

  const Algorithm algos[3] = {Algorithm::kOvh, Algorithm::kIma,
                              Algorithm::kGma};
  std::unique_ptr<MonitoringServer> servers[3];
  std::unique_ptr<BrinkhoffWorkload> workloads[3];
  for (int i = 0; i < 3; ++i) {
    servers[i] =
        std::make_unique<MonitoringServer>(base.SharedView(), algos[i]);
    workloads[i] =
        std::make_unique<BrinkhoffWorkload>(&servers[i]->network(), cfg);
    ASSERT_TRUE(servers[i]->Tick(workloads[i]->Initial()).ok());
  }
  for (int ts = 0; ts < 8; ++ts) {
    UpdateBatch batches[3];
    for (int i = 0; i < 3; ++i) {
      batches[i] = workloads[i]->Step();
      ASSERT_TRUE(servers[i]->Tick(batches[i]).ok());
    }
    // Queries present in all servers must agree; compare via the OVH
    // monitor's registered set.
    for (QueryId q = 0; q < 200; ++q) {
      const auto* ovh = servers[0]->ResultOf(q);
      if (ovh == nullptr) continue;
      const auto* ima = servers[1]->ResultOf(q);
      const auto* gma = servers[2]->ResultOf(q);
      ASSERT_NE(ima, nullptr);
      ASSERT_NE(gma, nullptr);
      SCOPED_TRACE("ts=" + std::to_string(ts) + " q=" + std::to_string(q));
      testing::ExpectSameDistances(*ima, *ovh);
      testing::ExpectSameDistances(*gma, *ovh);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BrinkhoffEquivalenceTest,
                         ::testing::Values(1, 2, 3));

/// The ablation modes must not change results, only costs.
TEST(AblationEquivalenceTest, DisabledReuseAndFilteringStayCorrect) {
  RoadNetwork base =
      GenerateRoadNetwork(NetworkGenConfig{.target_edges = 250, .seed = 42});
  WorkloadConfig wl;
  wl.num_objects = 60;
  wl.num_queries = 8;
  wl.k = 4;
  wl.seed = 99;

  MonitoringServer ovh(base.SharedView(), Algorithm::kOvh);
  MonitoringServer ima_plain(base.SharedView(), Algorithm::kIma);
  MonitoringServer ima_noreuse(base.SharedView(), Algorithm::kIma);
  MonitoringServer ima_nofilter(std::move(base), Algorithm::kIma);
  dynamic_cast<Ima&>(ima_noreuse.monitor()).engine().set_use_tree_reuse(false);
  dynamic_cast<Ima&>(ima_nofilter.monitor())
      .engine()
      .set_use_influence_filter(false);

  MonitoringServer* servers[4] = {&ovh, &ima_plain, &ima_noreuse,
                                  &ima_nofilter};
  std::unique_ptr<Workload> workloads[4];
  for (int i = 0; i < 4; ++i) {
    workloads[i] = std::make_unique<Workload>(
        &servers[i]->network(), &servers[i]->spatial_index(), wl);
    ASSERT_TRUE(servers[i]->Tick(workloads[i]->Initial()).ok());
  }
  for (int ts = 0; ts < 6; ++ts) {
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(servers[i]->Tick(workloads[i]->Step()).ok());
    }
    for (QueryId q = 0; q < wl.num_queries; ++q) {
      const auto* want = ovh.ResultOf(q);
      ASSERT_NE(want, nullptr);
      for (int i = 1; i < 4; ++i) {
        const auto* got = servers[i]->ResultOf(q);
        ASSERT_NE(got, nullptr);
        testing::ExpectSameDistances(*got, *want);
      }
    }
  }
}

}  // namespace
}  // namespace cknn
