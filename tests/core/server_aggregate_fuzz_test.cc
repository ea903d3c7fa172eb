// Differential fuzz for Section 4.5 preprocessing: replaying a randomly
// generated update batch one-update-per-tick ("raw") must leave the server
// in the same observable state as submitting the whole batch in a single
// aggregated tick — for every algorithm, and for arbitrary per-entity
// chains (move-after-move, appear-then-move, terminate-then-reinstall,
// install-move-terminate, repeated weight updates, ...). This is the test
// that falsified the pre-fix collapse rules, which dropped the terminate
// of a terminate→reinstall chain and re-installed a still-registered id.
//
// Runs under the `fuzz` label; seeds via CKNN_FUZZ_SEED, iteration budget
// via CKNN_FUZZ_SCALE (tests/fuzz_util.h).

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/server.h"
#include "src/util/rng.h"
#include "tests/fuzz_util.h"
#include "tests/test_util.h"

namespace cknn {
namespace {

constexpr ObjectId kNumObjectIds = 12;
constexpr QueryId kNumQueryIds = 8;

/// Ground truth the generator maintains so every chained update is valid
/// sequential input (old positions match, moves only touch live entities).
struct Model {
  std::map<ObjectId, NetworkPoint> objects;
  struct Query {
    NetworkPoint pos;
    int k = 1;
  };
  std::map<QueryId, Query> queries;
};

NetworkPoint RandomPoint(Rng* rng, std::size_t num_edges) {
  return NetworkPoint{static_cast<EdgeId>(rng->NextIndex(num_edges)),
                      rng->NextDouble()};
}

/// One random, sequentially valid update; appends it to `batch` and folds
/// it into `model`.
void AppendRandomUpdate(Rng* rng, std::size_t num_edges, Model* model,
                        UpdateBatch* batch) {
  switch (rng->NextIndex(3)) {
    case 0: {  // Object update.
      const ObjectId id = static_cast<ObjectId>(rng->NextIndex(kNumObjectIds));
      auto it = model->objects.find(id);
      if (it == model->objects.end()) {  // Appear.
        const NetworkPoint pos = RandomPoint(rng, num_edges);
        batch->objects.push_back(ObjectUpdate{id, std::nullopt, pos});
        model->objects.emplace(id, pos);
      } else if (rng->NextBool(0.25)) {  // Disappear.
        batch->objects.push_back(ObjectUpdate{id, it->second, std::nullopt});
        model->objects.erase(it);
      } else {  // Move.
        const NetworkPoint pos = RandomPoint(rng, num_edges);
        batch->objects.push_back(ObjectUpdate{id, it->second, pos});
        it->second = pos;
      }
      break;
    }
    case 1: {  // Query update.
      const QueryId id = static_cast<QueryId>(rng->NextIndex(kNumQueryIds));
      auto it = model->queries.find(id);
      if (it == model->queries.end()) {  // Install.
        Model::Query q{RandomPoint(rng, num_edges),
                       1 + static_cast<int>(rng->NextIndex(4))};
        batch->queries.push_back(
            QueryUpdate{id, QueryUpdate::Kind::kInstall, q.pos, q.k});
        model->queries.emplace(id, q);
      } else if (rng->NextBool(0.3)) {  // Terminate.
        batch->queries.push_back(
            QueryUpdate{id, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
        model->queries.erase(it);
      } else {  // Move.
        const NetworkPoint pos = RandomPoint(rng, num_edges);
        batch->queries.push_back(
            QueryUpdate{id, QueryUpdate::Kind::kMove, pos, 0});
        it->second.pos = pos;
      }
      break;
    }
    default: {  // Edge-weight update.
      batch->edges.push_back(
          EdgeUpdate{static_cast<EdgeId>(rng->NextIndex(num_edges)),
                     rng->Uniform(0.1, 5.0)});
      break;
    }
  }
}

/// Every query of `model` must expose identical results on both servers.
void ExpectSameObservableState(const Model& model, const MonitoringServer& a,
                               const MonitoringServer& b) {
  ASSERT_EQ(a.NumQueries(), model.queries.size());
  ASSERT_EQ(b.NumQueries(), model.queries.size());
  ASSERT_EQ(a.objects().size(), model.objects.size());
  ASSERT_EQ(b.objects().size(), model.objects.size());
  for (const auto& [id, pos] : model.objects) {
    ASSERT_TRUE(a.objects().Position(id).ok());
    EXPECT_EQ(a.objects().Position(id).value(), pos);
    EXPECT_EQ(b.objects().Position(id).value(), pos);
  }
  for (const auto& [id, q] : model.queries) {
    (void)q;
    SCOPED_TRACE("query " + std::to_string(id));
    const std::vector<Neighbor>* ra = a.ResultOf(id);
    const std::vector<Neighbor>* rb = b.ResultOf(id);
    ASSERT_NE(ra, nullptr);
    ASSERT_NE(rb, nullptr);
    // The raw replay takes different incremental-maintenance paths (one
    // tick per update), so distances may differ by accumulated rounding —
    // compare with the same relative tolerance the engine's invariant
    // checker uses. The neighbor id multiset must match exactly.
    ASSERT_EQ(ra->size(), rb->size());
    std::vector<ObjectId> ids_a, ids_b;
    for (std::size_t r = 0; r < ra->size(); ++r) {
      const double da = (*ra)[r].distance;
      const double db = (*rb)[r].distance;
      EXPECT_LE(std::abs(da - db), 1e-9 * (1.0 + std::abs(da)))
          << "rank " << r << ": object " << (*ra)[r].id << " at " << da
          << " vs object " << (*rb)[r].id << " at " << db;
      ids_a.push_back((*ra)[r].id);
      ids_b.push_back((*rb)[r].id);
    }
    std::sort(ids_a.begin(), ids_a.end());
    std::sort(ids_b.begin(), ids_b.end());
    EXPECT_EQ(ids_a, ids_b) << "neighbor id multiset divergence";
  }
  for (EdgeId e = 0; e < a.network().NumEdges(); ++e) {
    ASSERT_DOUBLE_EQ(a.network().edge(e).weight, b.network().edge(e).weight);
  }
}

class AggregateFuzzTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(AggregateFuzzTest, RawReplayEqualsAggregatedReplay) {
  const int cases = testing::FuzzIterations(6, 60);
  for (int c = 0; c < cases; ++c) {
    const std::uint64_t seed = testing::FuzzSeed(3000 + c);
    SCOPED_TRACE("case " + std::to_string(c) + " seed " +
                 std::to_string(seed));
    Rng rng(seed);
    // Shared starting state: a grid with a few objects and queries.
    RoadNetwork grid = testing::MakeGrid(4);
    const std::size_t num_edges = grid.NumEdges();
    MonitoringServer raw(testing::MakeGrid(4), GetParam());
    MonitoringServer aggregated(std::move(grid), GetParam());
    Model model;
    {
      UpdateBatch setup;
      for (ObjectId id = 0; id < 4; ++id) {
        const NetworkPoint pos = RandomPoint(&rng, num_edges);
        setup.objects.push_back(ObjectUpdate{id, std::nullopt, pos});
        model.objects.emplace(id, pos);
      }
      for (QueryId id = 0; id < 3; ++id) {
        Model::Query q{RandomPoint(&rng, num_edges),
                       1 + static_cast<int>(rng.NextIndex(3))};
        setup.queries.push_back(
            QueryUpdate{id, QueryUpdate::Kind::kInstall, q.pos, q.k});
        model.queries.emplace(id, q);
      }
      ASSERT_TRUE(raw.Tick(setup).ok());
      ASSERT_TRUE(aggregated.Tick(setup).ok());
    }
    // One dense batch with long per-entity chains (few ids, many updates).
    UpdateBatch batch;
    const int updates = 6 + static_cast<int>(rng.NextIndex(20));
    for (int u = 0; u < updates; ++u) {
      AppendRandomUpdate(&rng, num_edges, &model, &batch);
    }
    // Raw: one mini-tick per update, in order.
    for (const ObjectUpdate& u : batch.objects) {
      // Interleaving order matters only per entity; replay streams in the
      // generated per-kind order, queries after objects, edges last —
      // the same relative order aggregation preserves.
      UpdateBatch one;
      one.objects.push_back(u);
      ASSERT_TRUE(raw.Tick(one).ok());
    }
    for (const QueryUpdate& u : batch.queries) {
      UpdateBatch one;
      one.queries.push_back(u);
      ASSERT_TRUE(raw.Tick(one).ok());
    }
    for (const EdgeUpdate& u : batch.edges) {
      UpdateBatch one;
      one.edges.push_back(u);
      ASSERT_TRUE(raw.Tick(one).ok());
    }
    // Aggregated: the whole batch in a single tick.
    ASSERT_TRUE(aggregated.Tick(batch).ok());
    ExpectSameObservableState(model, raw, aggregated);
  }
}

/// The one sequentially invalid update of a corrupted batch.
struct Corruption {
  enum class Stream { kObjects, kQueries, kEdges };
  Stream stream = Stream::kObjects;
  std::size_t index = 0;  ///< Position within its stream.
  std::uint32_t entity = 0;
  StatusCode code = StatusCode::kOk;  ///< What a sequential replay returns.
};

/// Appends one update that a sequential replay rejects. What it claims is
/// folded into `model` as if it had been applied, so later links of the
/// same entity chain from it: the shape a fold that checks only the last
/// link would launder into a valid update.
Corruption AppendCorruptUpdate(Rng* rng, std::size_t num_edges, Model* model,
                               UpdateBatch* batch) {
  Corruption c;
  const NetworkPoint valid = RandomPoint(rng, num_edges);
  switch (rng->NextIndex(3)) {
    case 0: {
      c.stream = Corruption::Stream::kObjects;
      if (model->objects.empty()) {  // Everything died: make one present.
        batch->objects.push_back(ObjectUpdate{0, std::nullopt, valid});
        model->objects.emplace(0, valid);
      }
      auto it = model->objects.begin();
      std::advance(it, rng->NextIndex(model->objects.size()));
      const ObjectId id = it->first;
      ObjectUpdate u{id, it->second, valid};
      switch (rng->NextIndex(5)) {
        case 0:  // Old position that matches nothing (t > 1).
          u.old_pos->t = 2.0 + rng->NextDouble();
          c.code = StatusCode::kInvalidArgument;
          break;
        case 1:  // New position on an unknown edge.
          u.new_pos->edge = static_cast<EdgeId>(num_edges + 5);
          c.code = StatusCode::kInvalidArgument;
          break;
        case 2:  // New position off the edge.
          u.new_pos->t = 1.5;
          c.code = StatusCode::kInvalidArgument;
          break;
        case 3:  // Insert of an object that is present.
          u.old_pos.reset();
          c.code = StatusCode::kAlreadyExists;
          break;
        default:  // Move of an object that was never inserted.
          u.id = kNumObjectIds + 7;
          c.code = StatusCode::kNotFound;
          break;
      }
      c.index = batch->objects.size();
      c.entity = u.id;
      batch->objects.push_back(u);
      model->objects[u.id] = *u.new_pos;
      break;
    }
    case 1: {
      c.stream = Corruption::Stream::kQueries;
      QueryId absent = kNumQueryIds + 3;  // Fresh unless one below is free.
      for (QueryId id = 0; id < kNumQueryIds; ++id) {
        if (model->queries.count(id) == 0) absent = id;
      }
      QueryUpdate u{absent, QueryUpdate::Kind::kInstall, valid, 2};
      switch (rng->NextIndex(4)) {
        case 0:  // Installation with k = 0.
          u.k = 0;
          c.code = StatusCode::kInvalidArgument;
          break;
        case 1:  // Installation on an unknown edge.
          u.pos.edge = static_cast<EdgeId>(num_edges + 5);
          c.code = StatusCode::kInvalidArgument;
          break;
        case 2:  // Move of a query that is not installed.
          u.kind = QueryUpdate::Kind::kMove;
          c.code = StatusCode::kNotFound;
          break;
        default:  // Installation of a query that is installed.
          if (!model->queries.empty()) u.id = model->queries.begin()->first;
          else u.kind = QueryUpdate::Kind::kTerminate;  // NotFound instead.
          c.code = model->queries.empty() ? StatusCode::kNotFound
                                          : StatusCode::kAlreadyExists;
          break;
      }
      c.index = batch->queries.size();
      c.entity = u.id;
      batch->queries.push_back(u);
      if (u.kind == QueryUpdate::Kind::kTerminate) {
        model->queries.erase(u.id);
      } else {
        model->queries[u.id] = Model::Query{u.pos, u.k};
      }
      break;
    }
    default: {
      c.stream = Corruption::Stream::kEdges;
      EdgeUpdate u{static_cast<EdgeId>(rng->NextIndex(num_edges)), 1.0};
      switch (rng->NextIndex(3)) {
        case 0:
          u.new_weight = std::numeric_limits<double>::quiet_NaN();
          c.code = StatusCode::kInvalidArgument;
          break;
        case 1:
          u.new_weight = -1.0 - rng->NextDouble();
          c.code = StatusCode::kInvalidArgument;
          break;
        default:
          u.edge = static_cast<EdgeId>(num_edges + 2);
          c.code = StatusCode::kNotFound;
          break;
      }
      c.index = batch->edges.size();
      c.entity = u.edge;
      batch->edges.push_back(u);
      break;
    }
  }
  return c;
}

/// Appends a valid-looking next link for the corrupted entity, chained
/// from what the corrupt update claimed.
void AppendFollowUp(Rng* rng, std::size_t num_edges, const Corruption& c,
                    Model* model, UpdateBatch* batch) {
  const NetworkPoint pos = RandomPoint(rng, num_edges);
  switch (c.stream) {
    case Corruption::Stream::kObjects: {
      NetworkPoint& current = model->objects.at(c.entity);
      batch->objects.push_back(ObjectUpdate{c.entity, current, pos});
      current = pos;
      break;
    }
    case Corruption::Stream::kQueries:
      if (model->queries.count(c.entity) == 0) {
        batch->queries.push_back(
            QueryUpdate{c.entity, QueryUpdate::Kind::kInstall, pos, 1});
        model->queries[c.entity] = Model::Query{pos, 1};
      } else if (rng->NextBool(0.5)) {
        batch->queries.push_back(
            QueryUpdate{c.entity, QueryUpdate::Kind::kMove, pos, 0});
        model->queries[c.entity].pos = pos;
      } else {
        batch->queries.push_back(QueryUpdate{
            c.entity, QueryUpdate::Kind::kTerminate, NetworkPoint{}, 0});
        model->queries.erase(c.entity);
      }
      break;
    case Corruption::Stream::kEdges:
      batch->edges.push_back(EdgeUpdate{c.entity, rng->Uniform(0.1, 5.0)});
      break;
  }
}

TEST_P(AggregateFuzzTest, InvalidChainsRejectBothWays) {
  // Differential rejection: a batch with one sequentially invalid update —
  // anywhere in any stream, possibly followed by further valid-looking
  // links of the same entity — must be rejected by the aggregated
  // single-tick path with the status code the raw one-update-per-tick
  // replay hits at exactly that update, and leave the server untouched.
  // A fold that keeps only the last link would accept e.g.
  // insert@p1 -> move(p999 -> p2) as a valid insert@p2.
  const int cases = testing::FuzzIterations(24, 240);
  for (int c = 0; c < cases; ++c) {
    const std::uint64_t seed = testing::FuzzSeed(4000 + c);
    SCOPED_TRACE("case " + std::to_string(c) + " seed " +
                 std::to_string(seed));
    Rng rng(seed);
    RoadNetwork grid = testing::MakeGrid(4);
    const std::size_t num_edges = grid.NumEdges();
    MonitoringServer raw(testing::MakeGrid(4), GetParam());
    MonitoringServer untouched(testing::MakeGrid(4), GetParam());
    MonitoringServer aggregated(std::move(grid), GetParam());
    Model model;
    {
      UpdateBatch setup;
      for (ObjectId id = 0; id < 5; ++id) {
        const NetworkPoint pos = RandomPoint(&rng, num_edges);
        setup.objects.push_back(ObjectUpdate{id, std::nullopt, pos});
        model.objects.emplace(id, pos);
      }
      for (QueryId id = 0; id < 3; ++id) {
        Model::Query q{RandomPoint(&rng, num_edges), 2};
        setup.queries.push_back(
            QueryUpdate{id, QueryUpdate::Kind::kInstall, q.pos, q.k});
        model.queries.emplace(id, q);
      }
      ASSERT_TRUE(raw.Tick(setup).ok());
      ASSERT_TRUE(untouched.Tick(setup).ok());
      ASSERT_TRUE(aggregated.Tick(setup).ok());
    }
    const Model before = model;
    // A valid prefix, the corrupted update, an optional next link of the
    // same entity, and a valid suffix.
    UpdateBatch batch;
    const int prefix = static_cast<int>(rng.NextIndex(10));
    for (int u = 0; u < prefix; ++u) {
      AppendRandomUpdate(&rng, num_edges, &model, &batch);
    }
    const Corruption corruption =
        AppendCorruptUpdate(&rng, num_edges, &model, &batch);
    if (rng.NextBool(0.6)) {
      AppendFollowUp(&rng, num_edges, corruption, &model, &batch);
    }
    const int suffix = static_cast<int>(rng.NextIndex(10));
    for (int u = 0; u < suffix; ++u) {
      AppendRandomUpdate(&rng, num_edges, &model, &batch);
    }
    // Aggregated: the whole batch is rejected in one tick, untouched.
    const Status agg_status = aggregated.Tick(batch);
    EXPECT_EQ(agg_status.code(), corruption.code) << agg_status.ToString();
    ExpectSameObservableState(before, untouched, aggregated);
    // Raw: streams in order; every update before the corrupted one
    // replays fine and the corrupted one is rejected.
    Corruption::Stream failed_stream = Corruption::Stream::kObjects;
    std::size_t failed_index = 0;
    Status raw_status = Status::OK();
    const auto replay = [&](Corruption::Stream stream, std::size_t index,
                            const UpdateBatch& one) {
      if (!raw_status.ok()) return;
      raw_status = raw.Tick(one);
      failed_stream = stream;
      failed_index = index;
    };
    for (std::size_t i = 0; i < batch.objects.size(); ++i) {
      UpdateBatch one;
      one.objects.push_back(batch.objects[i]);
      replay(Corruption::Stream::kObjects, i, one);
    }
    for (std::size_t i = 0; i < batch.queries.size(); ++i) {
      UpdateBatch one;
      one.queries.push_back(batch.queries[i]);
      replay(Corruption::Stream::kQueries, i, one);
    }
    for (std::size_t i = 0; i < batch.edges.size(); ++i) {
      UpdateBatch one;
      one.edges.push_back(batch.edges[i]);
      replay(Corruption::Stream::kEdges, i, one);
    }
    ASSERT_FALSE(raw_status.ok());
    EXPECT_TRUE(failed_stream == corruption.stream);
    EXPECT_EQ(failed_index, corruption.index);
    EXPECT_EQ(raw_status.code(), corruption.code) << raw_status.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, AggregateFuzzTest,
                         ::testing::Values(Algorithm::kIma, Algorithm::kGma,
                                           Algorithm::kOvh),
                         [](const ::testing::TestParamInfo<Algorithm>& info) {
                           return std::string(AlgorithmName(info.param));
                         });

}  // namespace
}  // namespace cknn
