// Differential fuzz for ObjectTable: random Insert/Move/Remove/Apply
// sequences against a std::map model plus reference per-edge lists
// maintained with the plain find-and-swap-erase rule. The model decides
// whether each drawn operation is valid; every valid one runs on the
// table too, and the exact ObjectsOn order is compared after every
// operation, because the engines scan edge lists in that order and
// byte-identical results depend on it; so is every list entry's offset,
// which the engines read instead of the object's position. An invalid
// operation breaks a precondition the server refuses before the table
// sees it, so the table must abort on it (a death test per case).
//
// Runs under the `fuzz` label; seeds via CKNN_FUZZ_SEED, iteration budget
// via CKNN_FUZZ_SCALE (tests/fuzz_util.h).

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/object_table.h"
#include "src/util/rng.h"
#include "tests/fuzz_util.h"

namespace cknn {
namespace {

constexpr std::size_t kNumEdges = 7;

/// The table's contract, written out with ordered containers.
struct Reference {
  std::map<ObjectId, NetworkPoint> positions;
  std::vector<std::vector<ObjectId>> per_edge =
      std::vector<std::vector<ObjectId>>(kNumEdges);

  void Detach(ObjectId id, EdgeId e) {
    std::vector<ObjectId>& list = per_edge[e];
    auto it = std::find(list.begin(), list.end(), id);
    ASSERT_NE(it, list.end());
    *it = list.back();
    list.pop_back();
  }

  StatusCode Insert(ObjectId id, const NetworkPoint& pos) {
    if (pos.edge >= kNumEdges) return StatusCode::kInvalidArgument;
    if (positions.count(id) != 0) return StatusCode::kAlreadyExists;
    positions.emplace(id, pos);
    per_edge[pos.edge].push_back(id);
    return StatusCode::kOk;
  }

  StatusCode Remove(ObjectId id) {
    auto it = positions.find(id);
    if (it == positions.end()) return StatusCode::kNotFound;
    Detach(id, it->second.edge);
    positions.erase(it);
    return StatusCode::kOk;
  }

  StatusCode Move(ObjectId id, const NetworkPoint& pos) {
    if (pos.edge >= kNumEdges) return StatusCode::kInvalidArgument;
    auto it = positions.find(id);
    if (it == positions.end()) return StatusCode::kNotFound;
    if (it->second.edge != pos.edge) {
      Detach(id, it->second.edge);
      per_edge[pos.edge].push_back(id);
    }
    it->second = pos;
    return StatusCode::kOk;
  }
};

/// Mostly known edges, sometimes an unknown one.
NetworkPoint RandomPoint(Rng* rng, const Reference& ref, ObjectId id) {
  // A third of the draws for a present object stay on its edge, so
  // same-edge moves (an in-place offset update) are frequent.
  auto it = ref.positions.find(id);
  if (it != ref.positions.end() && rng->NextBool(0.33)) {
    return NetworkPoint{it->second.edge, rng->NextDouble()};
  }
  const EdgeId edge = rng->NextBool(0.05)
                          ? static_cast<EdgeId>(kNumEdges + rng->NextIndex(3))
                          : static_cast<EdgeId>(rng->NextIndex(kNumEdges));
  return NetworkPoint{edge, rng->NextDouble()};
}

/// One random operation, drawn and first run on the reference, which
/// changes only if the operation is valid. A valid one then runs on the
/// table. The first invalid one of a case (`*death_checked` false) must
/// make the table abort; later ones are skipped, since each death test
/// forks.
void RandomOp(Rng* rng, const std::vector<ObjectId>& ids, ObjectTable* table,
              Reference* ref, bool* death_checked) {
  const ObjectId id = ids[rng->NextIndex(ids.size())];
  const NetworkPoint pos = RandomPoint(rng, *ref, id);
  auto run = [&](StatusCode expected, auto&& apply) {
    if (expected == StatusCode::kOk) {
      apply();
    } else if (!*death_checked) {
      *death_checked = true;
      EXPECT_DEATH(apply(), "CKNN_CHECK failed") << "id " << id;
    }
  };
  switch (rng->NextIndex(4)) {
    case 0:
      run(ref->Insert(id, pos), [&] { table->Insert(id, pos); });
      break;
    case 1:
      run(ref->Move(id, pos), [&] { table->Move(id, pos); });
      break;
    case 2:
      run(ref->Remove(id), [&] { table->Remove(id); });
      break;
    default: {
      // Apply dispatches on which positions are present; the old
      // position's value is not consulted.
      ObjectUpdate u{id, std::nullopt, std::nullopt};
      if (rng->NextBool(0.6)) u.old_pos = RandomPoint(rng, *ref, id);
      if (rng->NextBool(0.6)) u.new_pos = pos;
      StatusCode expected = StatusCode::kOk;
      if (u.old_pos.has_value() && u.new_pos.has_value()) {
        expected = ref->Move(id, pos);
      } else if (u.old_pos.has_value()) {
        expected = ref->Remove(id);
      } else if (u.new_pos.has_value()) {
        expected = ref->Insert(id, pos);
      }
      run(expected, [&] { table->Apply(u); });
      break;
    }
  }
}

/// Every edge list holds the reference's ids in the reference's order,
/// and every entry's offset is its object's current offset.
void ExpectSameEdgeLists(const ObjectTable& table, const Reference& ref) {
  for (EdgeId e = 0; e < kNumEdges; ++e) {
    SCOPED_TRACE("edge " + std::to_string(e));
    const std::vector<EdgeObject>& list = table.ObjectsOn(e);
    ASSERT_EQ(list.size(), ref.per_edge[e].size());
    for (std::size_t i = 0; i < list.size(); ++i) {
      ASSERT_EQ(list[i].id, ref.per_edge[e][i]) << "index " << i;
      const NetworkPoint* pos = table.Find(list[i].id);
      ASSERT_NE(pos, nullptr);
      ASSERT_EQ(pos->edge, e);
      ASSERT_EQ(list[i].t(), pos->t) << "id " << list[i].id;
      ASSERT_EQ(list[i].t(), ref.positions.at(list[i].id).t);
    }
  }
}

/// Every observable of the table matches the reference.
void ExpectSame(const std::vector<ObjectId>& ids, const ObjectTable& table,
                const Reference& ref) {
  ASSERT_EQ(table.size(), ref.positions.size());
  for (const ObjectId id : ids) {
    SCOPED_TRACE("id " + std::to_string(id));
    auto it = ref.positions.find(id);
    const bool present = it != ref.positions.end();
    ASSERT_EQ(table.Contains(id), present);
    ASSERT_EQ(table.Position(id).ok(), present);
    ASSERT_EQ(table.Find(id) != nullptr, present);
    if (present) {
      EXPECT_EQ(table.Position(id).value(), it->second);
      EXPECT_EQ(*table.Find(id), it->second);
    } else {
      EXPECT_TRUE(table.Position(id).status().IsNotFound());
    }
  }
  ExpectSameEdgeLists(table, ref);
}

/// Ids at the edges of the id space, which a sentinel-keyed map would
/// mishandle, plus ids around 2^26 (where a paged dense map once switched
/// to a hash overflow).
std::vector<ObjectId> SpecialIds() {
  return {0, 1, ObjectId{1} << 26, (ObjectId{1} << 26) + 1, 0xFFFFFFFEu,
          kInvalidObject};
}

TEST(ObjectTableFuzzTest, RandomOperationsMatchTheReference) {
  const int cases = testing::FuzzIterations(20, 200);
  for (int c = 0; c < cases; ++c) {
    const std::uint64_t seed = testing::FuzzSeed(5000 + c);
    SCOPED_TRACE("case " + std::to_string(c) + " seed " +
                 std::to_string(seed));
    Rng rng(seed);
    // A small id pool makes collisions between operations frequent; the
    // pool size varies so the map grows and shrinks across its limits.
    std::vector<ObjectId> ids = SpecialIds();
    const std::size_t pool = 4 + rng.NextIndex(300);
    for (std::size_t i = 0; i < pool; ++i) {
      ids.push_back(rng.NextBool(0.5)
                        ? static_cast<ObjectId>(i)
                        : static_cast<ObjectId>(rng.NextU64()));
    }
    ObjectTable table(kNumEdges);
    Reference ref;
    bool death_checked = false;
    const int ops = 200 + static_cast<int>(rng.NextIndex(2000));
    for (int op = 0; op < ops; ++op) {
      RandomOp(&rng, ids, &table, &ref, &death_checked);
      if (::testing::Test::HasFatalFailure()) return;
      ExpectSameEdgeLists(table, ref);
      if (::testing::Test::HasFatalFailure()) return;
      if (op % 50 == 0) {
        ExpectSame(ids, table, ref);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    ExpectSame(ids, table, ref);
    if (::testing::Test::HasFatalFailure()) return;
    // Drain everything: the table must end empty, with empty edge lists.
    for (const ObjectId id : ids) {
      if (ref.Remove(id) == StatusCode::kOk) table.Remove(id);
      ExpectSameEdgeLists(table, ref);
      if (::testing::Test::HasFatalFailure()) return;
    }
    ExpectSame(ids, table, ref);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_EQ(table.size(), 0u);
  }
}

TEST(ObjectTableFuzzTest, MemoryFollowsLiveObjectsForSparseIds) {
  // Ids 2^20 apart span the whole 32-bit id space: a table sized by the
  // id space would need gigabytes. Memory must track the live objects,
  // growing and shrinking with them.
  const std::size_t kPerObjectBound = 512;
  const ObjectTable empty(kNumEdges);
  const std::size_t base = empty.MemoryBytes();
  const int cases = testing::FuzzIterations(2, 20);
  for (int c = 0; c < cases; ++c) {
    Rng rng(testing::FuzzSeed(6000 + c));
    std::vector<ObjectId> ids;
    for (std::uint64_t i = 0; i < (std::uint64_t{1} << 12); ++i) {
      ids.push_back(static_cast<ObjectId>(i << 20));
    }
    rng.Shuffle(&ids);
    ObjectTable table(kNumEdges);
    Reference ref;
    for (const ObjectId id : ids) {
      const NetworkPoint pos{static_cast<EdgeId>(rng.NextIndex(kNumEdges)),
                             rng.NextDouble()};
      ASSERT_EQ(ref.Insert(id, pos), StatusCode::kOk);
      table.Insert(id, pos);
      ASSERT_LE(table.MemoryBytes(), base + kPerObjectBound * table.size());
    }
    ExpectSame(ids, table, ref);
    if (::testing::Test::HasFatalFailure()) return;
    // Remove all but a 64th, in another order.
    rng.Shuffle(&ids);
    for (std::size_t i = 0; i < ids.size() - ids.size() / 64; ++i) {
      ASSERT_EQ(ref.Remove(ids[i]), StatusCode::kOk);
      table.Remove(ids[i]);
      ASSERT_LE(table.MemoryBytes(),
                base + kPerObjectBound * (table.size() + 1) +
                    // Edge lists keep their peak capacity.
                    ids.size() * sizeof(EdgeObject) * 2);
    }
    ExpectSame(ids, table, ref);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace cknn
