// Long-horizon stress: a single randomized run combining every dynamic —
// object movement + churn, query movement + install/terminate, and heavy
// weight fluctuation — over 40 timestamps on a mid-size network, with all
// three algorithms compared every timestamp and the engine invariants
// checked throughout. This is the closest in-tests approximation of the
// paper's 100-timestamp monitoring sessions.

#include <memory>

#include "gtest/gtest.h"
#include "src/core/gma.h"
#include "src/core/ima.h"
#include "src/core/server.h"
#include "src/gen/network_gen.h"
#include "src/util/rng.h"
#include "tests/fuzz_util.h"
#include "tests/test_util.h"

namespace cknn {
namespace {

class TortureTest : public ::testing::TestWithParam<int> {};

TEST_P(TortureTest, FortyTimestampsOfEverything) {
  const std::uint64_t seed =
      testing::FuzzSeed(static_cast<std::uint64_t>(GetParam()));
  RoadNetwork base = GenerateRoadNetwork(
      NetworkGenConfig{.target_edges = 400, .seed = seed});
  MonitoringServer ovh(base.SharedView(), Algorithm::kOvh);
  MonitoringServer ima(base.SharedView(), Algorithm::kIma);
  MonitoringServer gma(std::move(base), Algorithm::kGma);
  MonitoringServer* servers[3] = {&ovh, &ima, &gma};

  Rng rng(seed * 7919);
  const std::size_t num_edges = ovh.network().NumEdges();
  auto random_point = [&] {
    return NetworkPoint{static_cast<EdgeId>(rng.NextIndex(num_edges)),
                        rng.NextDouble()};
  };

  // Live entity registries (mirrors of what the servers should hold).
  std::unordered_map<ObjectId, NetworkPoint> obj_pos;
  std::unordered_map<QueryId, std::pair<NetworkPoint, int>> qry_pos;
  ObjectId next_obj = 0;
  QueryId next_qry = 0;

  UpdateBatch setup;
  for (int i = 0; i < 70; ++i) {
    const NetworkPoint p = random_point();
    setup.objects.push_back(ObjectUpdate{next_obj, std::nullopt, p});
    obj_pos[next_obj++] = p;
  }
  for (int i = 0; i < 10; ++i) {
    const NetworkPoint p = random_point();
    const int k = 1 + static_cast<int>(rng.NextIndex(6));
    setup.queries.push_back(
        QueryUpdate{next_qry, QueryUpdate::Kind::kInstall, p, k});
    qry_pos[next_qry++] = {p, k};
  }
  for (auto* s : servers) ASSERT_TRUE(s->Tick(setup).ok());

  const int horizon = testing::FuzzIterations(/*default_iters=*/40,
                                              /*hard_cap=*/1000);
  for (int ts = 0; ts < horizon; ++ts) {
    UpdateBatch batch;
    // Objects: move 25%, remove 5%, add as many back.
    std::vector<ObjectId> objs;
    for (const auto& [id, p] : obj_pos) {
      (void)p;
      objs.push_back(id);
    }
    std::sort(objs.begin(), objs.end());
    for (ObjectId id : objs) {
      const double roll = rng.NextDouble();
      if (roll < 0.05) {
        batch.objects.push_back(ObjectUpdate{id, obj_pos[id], std::nullopt});
        obj_pos.erase(id);
      } else if (roll < 0.30) {
        const NetworkPoint p = random_point();
        batch.objects.push_back(ObjectUpdate{id, obj_pos[id], p});
        obj_pos[id] = p;
      }
    }
    while (obj_pos.size() < 70) {
      const NetworkPoint p = random_point();
      batch.objects.push_back(ObjectUpdate{next_obj, std::nullopt, p});
      obj_pos[next_obj++] = p;
    }
    // Queries: move 30%, terminate 5%, install replacements.
    std::vector<QueryId> qids;
    for (const auto& [id, p] : qry_pos) {
      (void)p;
      qids.push_back(id);
    }
    std::sort(qids.begin(), qids.end());
    for (QueryId id : qids) {
      const double roll = rng.NextDouble();
      if (roll < 0.05) {
        batch.queries.push_back(
            QueryUpdate{id, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
        qry_pos.erase(id);
      } else if (roll < 0.35) {
        const NetworkPoint p = random_point();
        batch.queries.push_back(
            QueryUpdate{id, QueryUpdate::Kind::kMove, p, 0});
        qry_pos[id].first = p;
      }
    }
    while (qry_pos.size() < 10) {
      const NetworkPoint p = random_point();
      const int k = 1 + static_cast<int>(rng.NextIndex(6));
      batch.queries.push_back(
          QueryUpdate{next_qry, QueryUpdate::Kind::kInstall, p, k});
      qry_pos[next_qry++] = {p, k};
    }
    // Edges: 10% fluctuate by a random factor in [0.7, 1.4].
    for (EdgeId e = 0; e < num_edges; ++e) {
      if (!rng.NextBool(0.10)) continue;
      batch.edges.push_back(
          EdgeUpdate{e, ovh.network().edge(e).weight * rng.Uniform(0.7, 1.4)});
    }

    for (auto* s : servers) ASSERT_TRUE(s->Tick(batch).ok());
    ASSERT_TRUE(dynamic_cast<Ima&>(ima.monitor())
                    .engine()
                    .CheckInvariants()
                    .ok())
        << "ts " << ts;
    ASSERT_TRUE(dynamic_cast<Gma&>(gma.monitor())
                    .engine()
                    .CheckInvariants()
                    .ok())
        << "ts " << ts;
    ASSERT_TRUE(dynamic_cast<Gma&>(gma.monitor()).CheckInvariants().ok())
        << "ts " << ts;
    for (const auto& [id, pk] : qry_pos) {
      (void)pk;
      const auto* want = ovh.ResultOf(id);
      ASSERT_NE(want, nullptr);
      SCOPED_TRACE("ts=" + std::to_string(ts) + " q=" + std::to_string(id));
      ASSERT_NE(ima.ResultOf(id), nullptr);
      ASSERT_NE(gma.ResultOf(id), nullptr);
      testing::ExpectSameDistances(*ima.ResultOf(id), *want);
      testing::ExpectSameDistances(*gma.ResultOf(id), *want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TortureTest, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace cknn
