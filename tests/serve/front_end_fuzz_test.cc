// Differential fuzz of the serving front end's admission (docs/serving.md):
// random windows of client requests, valid ones mixed with every kind the
// admission rules refuse, go through ServingFrontEnd as one Flush each and
// through a reference server one request per Tick. Both must refuse the
// same requests with the same codes and end each window with the same
// object table, query registry and edge weights; results must be
// byte-identical for OVH and equal within the conformance tolerance for
// IMA and GMA (the reference takes other incremental-maintenance paths).
// Every window that admits an update must cost the front end one tick.
//
// Runs under the `fuzz` and `serving` labels; seeds via CKNN_FUZZ_SEED,
// iteration budget via CKNN_FUZZ_SCALE (tests/fuzz_util.h).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/server.h"
#include "src/gen/network_gen.h"
#include "src/serve/front_end.h"
#include "src/serve/protocol.h"
#include "src/util/rng.h"
#include "tests/fuzz_util.h"

namespace cknn {
namespace {

using Op = ServeRequest::Op;

constexpr std::uint64_t kObjectIds = 12;
constexpr std::uint64_t kQueryIds = 6;
constexpr std::uint64_t kWide = std::uint64_t{1} << 32;
/// Relative distance tolerance of the IMA/GMA comparison (the conformance
/// harness default, src/sim/conformance.h).
constexpr double kTolerance = 1e-7;

using Outcome = std::pair<std::size_t, StatusCode>;

NetworkPoint RandomPoint(Rng* rng, std::size_t num_edges) {
  return NetworkPoint{static_cast<EdgeId>(rng->NextIndex(num_edges)),
                      rng->NextDouble()};
}

/// The reference: one request per Tick, lowered against the server's
/// current table. A move or remove of an absent object names a placeholder
/// old position, which the server refuses with NotFound.
Status ReplayOne(const ServeRequest& r, MonitoringServer* ref) {
  const Status wide = serve::CheckWireId(r.id, "id");
  if (!wide.ok()) return wide;
  const auto id = static_cast<std::uint32_t>(r.id);
  const NetworkPoint* current = ref->objects().Find(id);
  const NetworkPoint old = current != nullptr ? *current : NetworkPoint{};
  UpdateBatch one;
  switch (r.op) {
    case Op::kAddObject:
      one.objects.push_back(ObjectUpdate{id, std::nullopt, r.pos});
      break;
    case Op::kMoveObject:
      one.objects.push_back(ObjectUpdate{id, old, r.pos});
      break;
    case Op::kRemoveObject:
      one.objects.push_back(ObjectUpdate{id, old, std::nullopt});
      break;
    case Op::kInstallQuery:
      one.queries.push_back(
          QueryUpdate{id, QueryUpdate::Kind::kInstall, r.pos, r.k});
      break;
    case Op::kMoveQuery:
      one.queries.push_back(
          QueryUpdate{id, QueryUpdate::Kind::kMove, r.pos, 1});
      break;
    case Op::kTerminateQuery:
      one.queries.push_back(
          QueryUpdate{id, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 1});
      break;
    case Op::kUpdateWeight:
      one.edges.push_back(EdgeUpdate{id, r.weight});
      break;
  }
  return ref->Tick(one);
}

/// A request with valid values; whether the entity's state admits it is
/// left to chance (double add, move of an absent object, ...). With
/// `populate`, object and query requests are adds and installs.
ServeRequest RandomRequest(Rng* rng, std::size_t num_edges, bool populate) {
  ServeRequest r;
  r.pos = RandomPoint(rng, num_edges);
  switch (rng->NextIndex(3)) {
    case 0: {
      constexpr Op kOps[] = {Op::kAddObject, Op::kMoveObject,
                             Op::kRemoveObject};
      r.op = populate ? Op::kAddObject : kOps[rng->NextIndex(3)];
      r.id = rng->NextIndex(kObjectIds);
      break;
    }
    case 1: {
      constexpr Op kOps[] = {Op::kInstallQuery, Op::kMoveQuery,
                             Op::kTerminateQuery};
      r.op = populate ? Op::kInstallQuery : kOps[rng->NextIndex(3)];
      r.id = rng->NextIndex(kQueryIds);
      r.k = 1 + static_cast<int>(rng->NextIndex(4));
      break;
    }
    default:
      r.op = Op::kUpdateWeight;
      r.id = rng->NextIndex(num_edges);
      r.weight = rng->Uniform(0.1, 5.0);
      break;
  }
  return r;
}

/// Gives `r` a value the rules refuse whatever the entity's state: a wide
/// id, an unknown edge, an offset outside [0, 1] or NaN, k = 0, or a NaN
/// or negative weight.
void Corrupt(Rng* rng, std::size_t num_edges, ServeRequest* r) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const bool weight = r->op == Op::kUpdateWeight;
  switch (rng->NextIndex(4)) {
    case 0:
      r->id += kWide;
      break;
    case 1:
      if (weight) {
        r->id = num_edges + rng->NextIndex(3);
      } else {
        r->pos.edge = static_cast<EdgeId>(num_edges + rng->NextIndex(3));
      }
      break;
    case 2: {
      const double bad[] = {-0.25, 1.25, nan};
      r->pos.t = bad[rng->NextIndex(3)];
      if (weight) r->weight = rng->NextBool(0.5) ? nan : -1.0;
      break;
    }
    default:
      r->k = 0;
      if (weight) r->weight = nan;
      break;
  }
}

/// A request the reference admits for the entity `r` names (its 32-bit
/// alias for a wide id).
ServeRequest ValidFollowUp(Rng* rng, const ServeRequest& r,
                           const MonitoringServer& ref) {
  const std::size_t num_edges = ref.network().NumEdges();
  ServeRequest next;
  next.id = r.id % kWide;
  next.pos = RandomPoint(rng, num_edges);
  switch (r.op) {
    case Op::kAddObject:
    case Op::kMoveObject:
    case Op::kRemoveObject:
      next.op = ref.objects().Contains(static_cast<ObjectId>(next.id))
                    ? Op::kMoveObject
                    : Op::kAddObject;
      break;
    case Op::kInstallQuery:
    case Op::kMoveQuery:
    case Op::kTerminateQuery:
      next.op = ref.shards().IsRegistered(static_cast<QueryId>(next.id))
                    ? Op::kMoveQuery
                    : Op::kInstallQuery;
      next.k = 1 + static_cast<int>(rng->NextIndex(4));
      break;
    case Op::kUpdateWeight:
      next.op = Op::kUpdateWeight;
      next.id %= num_edges;
      next.weight = rng->Uniform(0.1, 5.0);
      break;
  }
  return next;
}

/// Appends `r` to the window and replays it on the reference, recording a
/// refusal under its window index.
void Append(const ServeRequest& r, MonitoringServer* ref,
            std::vector<ServeRequest>* window,
            std::vector<Outcome>* refused) {
  const Status status = ReplayOne(r, ref);
  if (!status.ok()) refused->emplace_back(window->size(), status.code());
  window->push_back(r);
}

void ExpectSameNeighbors(const std::vector<Neighbor>& served,
                         const std::vector<Neighbor>& ref, bool exact) {
  if (exact) {
    EXPECT_TRUE(served == ref) << "results are not byte-identical";
    return;
  }
  ASSERT_EQ(served.size(), ref.size());
  std::vector<double> a, b;
  for (const Neighbor& n : served) a.push_back(n.distance);
  for (const Neighbor& n : ref) b.push_back(n.distance);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_LE(std::abs(a[r] - b[r]), kTolerance * (1.0 + std::abs(b[r])))
        << "rank " << r << ": " << a[r] << " vs " << b[r];
  }
}

void ExpectSameState(const MonitoringServer& served,
                     const MonitoringServer& ref) {
  ASSERT_EQ(served.objects().size(), ref.objects().size());
  for (ObjectId id = 0; id < kObjectIds; ++id) {
    const NetworkPoint* a = served.objects().Find(id);
    const NetworkPoint* b = ref.objects().Find(id);
    ASSERT_EQ(a == nullptr, b == nullptr) << "object " << id;
    if (a != nullptr) {
      EXPECT_EQ(*a, *b) << "object " << id;
    }
  }
  ASSERT_EQ(served.NumQueries(), ref.NumQueries());
  const bool exact = ref.algorithm() == Algorithm::kOvh;
  for (QueryId id = 0; id < kQueryIds; ++id) {
    SCOPED_TRACE("query " + std::to_string(id));
    ASSERT_EQ(served.shards().IsRegistered(id), ref.shards().IsRegistered(id));
    const std::vector<Neighbor>* a = served.ResultOf(id);
    const std::vector<Neighbor>* b = ref.ResultOf(id);
    ASSERT_EQ(a == nullptr, b == nullptr);
    if (a != nullptr) ExpectSameNeighbors(*a, *b, exact);
  }
  for (EdgeId e = 0; e < ref.network().NumEdges(); ++e) {
    ASSERT_EQ(served.network().edge(e).weight, ref.network().edge(e).weight)
        << "edge " << e;
  }
}

class FrontEndFuzzTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(FrontEndFuzzTest, WindowsMatchOneRequestPerTick) {
  const int cases = testing::FuzzIterations(12, 120);
  for (int c = 0; c < cases; ++c) {
    const std::uint64_t seed = testing::FuzzSeed(9700 + c);
    SCOPED_TRACE("case " + std::to_string(c) + " seed " +
                 std::to_string(seed));
    Rng rng(seed);
    const NetworkGenConfig net{.target_edges = 120, .seed = seed ^ 0xFE};
    MonitoringServer ref(GenerateRoadNetwork(net), GetParam());
    MonitoringServer served(GenerateRoadNetwork(net), GetParam(),
                            /*num_shards=*/2, /*pipeline_depth=*/2);
    const std::size_t num_edges = ref.network().NumEdges();
    ServingFrontEnd front_end(&served);  // No pump: one tick per window.

    for (int w = 0; w < 8; ++w) {
      SCOPED_TRACE("window " + std::to_string(w));
      std::vector<ServeRequest> window;
      std::vector<Outcome> refused;
      const int size = 1 + static_cast<int>(rng.NextIndex(24));
      for (int n = 0; n < size; ++n) {
        // The first window populates; later ones mix in refusals.
        ServeRequest r = RandomRequest(&rng, num_edges, /*populate=*/w == 0);
        if (w > 0 && rng.NextBool(0.35)) Corrupt(&rng, num_edges, &r);
        const std::size_t refusals = refused.size();
        Append(r, &ref, &window, &refused);
        if (refused.size() > refusals && rng.NextBool(0.6)) {
          Append(ValidFollowUp(&rng, r, ref), &ref, &window, &refused);
        }
      }

      std::vector<Outcome> rejected;
      for (const ServingFrontEnd::Rejection& r :
           ServingFrontEnd::BuildBatch(window, served).rejected) {
        rejected.emplace_back(r.index, r.status.code());
      }
      EXPECT_EQ(rejected, refused);

      const ServingStats before = front_end.Stats();
      for (const ServeRequest& r : window) {
        ASSERT_TRUE(front_end.TrySubmit(r).ok());
      }
      const Status flushed = front_end.Flush();
      ASSERT_TRUE(flushed.ok()) << flushed.ToString();
      const ServingStats after = front_end.Stats();
      const std::uint64_t admitted = window.size() - refused.size();
      EXPECT_EQ(after.rejected_invalid - before.rejected_invalid,
                refused.size());
      EXPECT_EQ(after.applied - before.applied, admitted);
      EXPECT_EQ(after.ticks - before.ticks, admitted > 0 ? 1u : 0u);
      ExpectSameState(served, ref);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, FrontEndFuzzTest,
                         ::testing::Values(Algorithm::kOvh, Algorithm::kIma,
                                           Algorithm::kGma),
                         [](const ::testing::TestParamInfo<Algorithm>& info) {
                           return std::string(AlgorithmName(info.param));
                         });

}  // namespace
}  // namespace cknn
