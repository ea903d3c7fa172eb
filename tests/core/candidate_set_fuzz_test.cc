// Differential fuzz of CandidateSet against a naive reference model
// (ordered map + full sort on every inspection). The candidate set is
// the ranking heart of every algorithm here, so its Offer/Set/Remove/
// PruneBeyond/Clear semantics get hammered with random operation tapes.
//
// The ids come from pools that include the ends of the id space (0, 2^31,
// 0xFFFFFFFE, kInvalidObject) and ids 2^20 apart, which a sentinel-keyed
// or badly hashed map would mishandle. Besides the ranked reads, every
// few operations the whole observable state is compared: DistanceOf and
// Contains for every pool id, All(), and the ForEachCandidate multiset.
// Further tapes drain the set to empty (through Remove or PruneBeyond)
// and regrow it, or Clear it and reuse it, and check that the footprint
// follows the live entries once the map has shrunk. A last tape drives
// the shape that causes nearly every rebuild of the nearest-keys array in
// the monitors (runs of tracked removals and raises between ranked reads,
// as `RescanEdge` does) and pins that a rebuild leaves that array at its
// tracked capacity.
//
// Runs under the `fuzz` label; seeds via CKNN_FUZZ_SEED, iteration budget
// via CKNN_FUZZ_SCALE (tests/fuzz_util.h).

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/top_k.h"
#include "src/util/flat_id_map.h"
#include "src/util/rng.h"
#include "tests/fuzz_util.h"

namespace cknn {
namespace {

/// Reference model with the same interface semantics.
class NaiveCandidateSet {
 public:
  bool Offer(ObjectId id, double dist) {
    auto it = map_.find(id);
    if (it == map_.end()) {
      map_.emplace(id, dist);
      return true;
    }
    if (dist >= it->second) return false;
    it->second = dist;
    return true;
  }
  void Set(ObjectId id, double dist) { map_[id] = dist; }
  std::optional<double> Remove(ObjectId id) {
    auto it = map_.find(id);
    if (it == map_.end()) return std::nullopt;
    const double d = it->second;
    map_.erase(it);
    return d;
  }
  std::optional<double> DistanceOf(ObjectId id) const {
    auto it = map_.find(id);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }
  double KthDist(int k) const {
    auto sorted = Sorted();
    if (static_cast<int>(sorted.size()) < k) return kInfDist;
    return sorted[k - 1].distance;
  }
  std::vector<Neighbor> TopK(int k) const {
    auto sorted = Sorted();
    if (static_cast<int>(sorted.size()) > k) {
      sorted.resize(static_cast<std::size_t>(k));
    }
    return sorted;
  }
  void PruneBeyond(double bound) {
    for (auto it = map_.begin(); it != map_.end();) {
      it = it->second > bound ? map_.erase(it) : std::next(it);
    }
  }
  void Clear() { map_.clear(); }
  std::size_t size() const { return map_.size(); }
  std::vector<ObjectId> Ids() const {
    std::vector<ObjectId> ids;
    for (const auto& [id, d] : map_) ids.push_back(id);
    return ids;
  }
  const std::map<ObjectId, double>& entries() const { return map_; }

  std::vector<Neighbor> Sorted() const {
    std::vector<Neighbor> v;
    for (const auto& [id, d] : map_) v.push_back(Neighbor{id, d});
    std::sort(v.begin(), v.end(), [](const Neighbor& a, const Neighbor& b) {
      return a.distance != b.distance ? a.distance < b.distance
                                      : a.id < b.id;
    });
    return v;
  }

 private:
  std::map<ObjectId, double> map_;
};

/// Ids at the ends of the id space; every one must be a valid key.
std::vector<ObjectId> SpecialIds() {
  return {0, ObjectId{1} << 31, 0xFFFFFFFEu, kInvalidObject};
}

/// `n` distinct ids: the special ids, then dense small ids or ids 2^20
/// apart.
std::vector<ObjectId> IdPool(std::size_t n, bool spread) {
  const std::vector<ObjectId> special = SpecialIds();
  std::vector<ObjectId> pool = special;
  for (ObjectId i = 1; pool.size() < n; ++i) {
    const ObjectId id = spread ? i << 20 : i;
    if (std::find(special.begin(), special.end(), id) == special.end()) {
      pool.push_back(id);
    }
  }
  return pool;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& a,
                         const std::vector<Neighbor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].id, b[i].id) << "rank " << i;
    ASSERT_EQ(a[i].distance, b[i].distance) << "rank " << i;
  }
}

/// Every observable of the set matches the model: point lookups for every
/// pool id, All(), and the ForEachCandidate multiset.
void ExpectSameState(const CandidateSet& real, const NaiveCandidateSet& naive,
                     const std::vector<ObjectId>& pool) {
  ASSERT_EQ(real.size(), naive.size());
  ASSERT_EQ(real.empty(), naive.size() == 0);
  for (const ObjectId id : pool) {
    const std::optional<double> want = naive.DistanceOf(id);
    ASSERT_EQ(real.Contains(id), want.has_value()) << "id " << id;
    const std::optional<double> got = real.DistanceOf(id);
    ASSERT_EQ(got.has_value(), want.has_value()) << "id " << id;
    if (want) {
      ASSERT_EQ(*got, *want) << "id " << id;
    }
  }
  ExpectSameNeighbors(real.All(), naive.Sorted());
  if (::testing::Test::HasFatalFailure()) return;
  std::vector<std::pair<ObjectId, double>> seen;
  real.ForEachCandidate(
      [&](ObjectId id, double dist) { seen.emplace_back(id, dist); });
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), naive.size());
  std::size_t i = 0;
  for (const auto& [id, dist] : naive.entries()) {
    ASSERT_EQ(seen[i].first, id) << "entry " << i;
    ASSERT_EQ(seen[i].second, dist) << "id " << id;
    ++i;
  }
}

class CandidateSetFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(CandidateSetFuzzTest, AgreesWithNaiveModel) {
  Rng rng(testing::FuzzSeed(static_cast<std::uint64_t>(GetParam())) * 99991);
  CandidateSet real;
  NaiveCandidateSet naive;
  const int num_ops = testing::FuzzIterations(/*default_iters=*/3000,
                                              /*hard_cap=*/200000);
  // Odd seeds run a wide tape: enough live ids to overflow the sorted
  // top array (64 entries) and k beyond it, exercising the adaptive-cap
  // growth, displacement, and stale-rebuild paths. Even seeds keep the
  // original narrow tape (everything inside the array). Seeds 3, 4, 7
  // and 8 space the pool's ids 2^20 apart instead of densely.
  const bool wide = GetParam() % 2 == 1;
  const bool spread = (GetParam() - 1) / 2 % 2 == 1;
  const std::vector<ObjectId> pool = IdPool(wide ? 300 : 60, spread);
  const int max_k = wide ? 150 : 8;
  for (int op = 0; op < num_ops; ++op) {
    const ObjectId id = pool[rng.NextIndex(pool.size())];
    // Quantized distances produce plenty of exact ties.
    const double dist = static_cast<double>(rng.NextIndex(40)) * 0.25;
    switch (rng.NextIndex(5)) {
      case 0:
      case 1:
        EXPECT_EQ(real.Offer(id, dist), naive.Offer(id, dist));
        break;
      case 2:
        real.Set(id, dist);
        naive.Set(id, dist);
        break;
      case 3: {
        const auto a = real.Remove(id);
        const auto b = naive.Remove(id);
        EXPECT_EQ(a.has_value(), b.has_value());
        if (a && b) {
          EXPECT_DOUBLE_EQ(*a, *b);
        }
        break;
      }
      case 4: {
        const double bound = static_cast<double>(rng.NextIndex(40)) * 0.25;
        real.PruneBeyond(bound);
        naive.PruneBeyond(bound);
        break;
      }
    }
    ASSERT_EQ(real.size(), naive.size());
    const int k = 1 + static_cast<int>(rng.NextIndex(max_k));
    ASSERT_EQ(real.KthDist(k), naive.KthDist(k));
    if (op % 50 == 0) {
      ExpectSameNeighbors(real.TopK(k), naive.TopK(k));
      ExpectSameState(real, naive, pool);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  ExpectSameState(real, naive, pool);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CandidateSetFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/// Footprint of an emptied-out set: the map's smallest array plus a top
/// array of up to 64 entries (with growth slack).
constexpr std::size_t kBaseBytes = 4096;
/// Bytes per live entry once the map has shrunk: it halves below 1/8
/// load, so at most 8 slots of (well) under 16 bytes per entry.
constexpr std::size_t kBytesPerEntry = 128;

/// After an operation that may shrink the map, the footprint follows the
/// live entries.
void ExpectShrunk(const CandidateSet& real) {
  ASSERT_LE(real.MemoryBytes(), kBaseBytes + kBytesPerEntry * real.size())
      << real.size() << " live entries";
}

/// Random Offer/Set/Remove operations that leave about `target` live
/// entries, checked against the model.
void Grow(Rng* rng, const std::vector<ObjectId>& pool, std::size_t target,
          CandidateSet* real, NaiveCandidateSet* naive) {
  for (int op = 0; naive->size() < target; ++op) {
    const ObjectId id = pool[rng->NextIndex(pool.size())];
    const double dist = static_cast<double>(rng->NextIndex(64)) * 0.125;
    const std::uint64_t roll = rng->NextIndex(8);
    if (roll < 5) {
      ASSERT_EQ(real->Offer(id, dist), naive->Offer(id, dist));
    } else if (roll < 7) {
      real->Set(id, dist);
      naive->Set(id, dist);
    } else {
      const auto a = real->Remove(id);
      const auto b = naive->Remove(id);
      ASSERT_EQ(a.has_value(), b.has_value()) << "id " << id;
      if (a) {
        ASSERT_EQ(*a, *b) << "id " << id;
      }
    }
    if (op % 7 == 0) {
      const int k = 1 + static_cast<int>(rng->NextIndex(64));
      ASSERT_EQ(real->KthDist(k), naive->KthDist(k));
    }
    if (op % 101 == 0) {
      ExpectSameState(*real, *naive, pool);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// Empties the set through Remove, PruneBeyond, or both, checking the
/// model and the footprint on the way down.
void Drain(Rng* rng, const std::vector<ObjectId>& pool, CandidateSet* real,
           NaiveCandidateSet* naive) {
  const std::uint64_t mode = rng->NextIndex(3);
  double bound = 8.0;
  for (int op = 0; naive->size() > 0; ++op) {
    const bool prune = mode == 1 || (mode == 2 && rng->NextBool(0.05));
    if (prune) {
      bound = std::max(-1.0, bound - 0.125 * (1 + rng->NextIndex(8)));
      real->PruneBeyond(bound);
      naive->PruneBeyond(bound);
    } else {
      std::vector<ObjectId> live = naive->Ids();
      const ObjectId id = live[rng->NextIndex(live.size())];
      const auto a = real->Remove(id);
      ASSERT_TRUE(a.has_value()) << "id " << id;
      ASSERT_EQ(*a, *naive->Remove(id)) << "id " << id;
    }
    ASSERT_EQ(real->size(), naive->size());
    ExpectShrunk(*real);
    if (op % 7 == 0) {
      const int k = 1 + static_cast<int>(rng->NextIndex(64));
      ASSERT_EQ(real->KthDist(k), naive->KthDist(k));
    }
    if (op % 101 == 0) {
      ExpectSameState(*real, *naive, pool);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  ExpectSameState(*real, *naive, pool);
  ASSERT_TRUE(real->empty());
  ASSERT_EQ(real->KthDist(1), kInfDist);
}

TEST(CandidateSetFuzzTest, DrainsRegrowsAndClears) {
  const int cases = testing::FuzzIterations(/*default_iters=*/6,
                                            /*hard_cap=*/600);
  for (int c = 0; c < cases; ++c) {
    const std::uint64_t seed = testing::FuzzSeed(7000 + c);
    SCOPED_TRACE("case " + std::to_string(c) + " seed " +
                 std::to_string(seed));
    Rng rng(seed);
    const std::vector<ObjectId> pool = IdPool(4000, /*spread=*/c % 2 == 0);
    CandidateSet real;
    NaiveCandidateSet naive;
    for (int round = 0; round < 6; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      const std::size_t target =
          1 + rng.NextIndex(rng.NextBool(0.5) ? 60 : 2500);
      Grow(&rng, pool, target, &real, &naive);
      if (::testing::Test::HasFatalFailure()) return;
      if (rng.NextBool(0.3)) {
        // A cleared set is reused as it is, capacity and all.
        real.Clear();
        naive.Clear();
        ExpectSameState(real, naive, pool);
      } else {
        Drain(&rng, pool, &real, &naive);
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(CandidateSetFuzzTest, FootprintFollowsLiveEntriesForSparseIds) {
  // Ids 2^20 apart span the whole 32-bit id space; the footprint must
  // follow the live entries as they grow and, after removals, shrink.
  const int cases = testing::FuzzIterations(/*default_iters=*/2,
                                            /*hard_cap=*/50);
  for (int c = 0; c < cases; ++c) {
    Rng rng(testing::FuzzSeed(8000 + c));
    std::vector<ObjectId> ids = IdPool(4096, /*spread=*/true);
    rng.Shuffle(&ids);
    CandidateSet real;
    for (const ObjectId id : ids) {
      ASSERT_TRUE(real.Offer(id, rng.NextDouble()));
      ASSERT_LE(real.MemoryBytes(),
                kBaseBytes + kBytesPerEntry * real.size());
    }
    // Remove all but a 64th, in another order.
    rng.Shuffle(&ids);
    for (std::size_t i = 0; i < ids.size() - ids.size() / 64; ++i) {
      ASSERT_TRUE(real.Remove(ids[i]).has_value());
      ExpectShrunk(real);
    }
    EXPECT_EQ(real.size(), ids.size() / 64);
  }
}

/// A 12-byte slot, the size of the candidate set's own map slots, so a
/// FlatIdMap of these that sees the same inserts and erases holds an
/// array of exactly the set's map footprint.
struct MirrorSlot {
  ObjectId id = 0;
  std::uint32_t live = 0;
  std::uint32_t pad = 0;

  bool vacant() const { return live == 0; }
  ObjectId key() const { return id; }
};
static_assert(sizeof(MirrorSlot) == 12, "mirrors the 12-byte map slots");

TEST(CandidateSetFuzzTest, RebuildAfterTrackedRemovalsAndRaises) {
  // Sets of cap+1 ... 4 cap candidates, where cap is the tracked range
  // (64, or k once a ranked read asks for more). Between ranked reads a
  // run of operations removes tracked keys and raises tracked distances,
  // which leaves untracked keys to promote, so every read rebuilds.
  const int rounds = testing::FuzzIterations(/*default_iters=*/40,
                                             /*hard_cap=*/4000);
  for (const int k : {1, 50, 64, 65, 200}) {
    SCOPED_TRACE("k " + std::to_string(k));
    const std::size_t cap = static_cast<std::size_t>(std::max(64, k));
    Rng rng(testing::FuzzSeed(9000 + static_cast<std::uint64_t>(k)));
    const std::vector<ObjectId> pool = IdPool(8 * cap, /*spread=*/k % 2 == 1);
    for (std::size_t n = cap + 1; n <= 4 * cap; n += 1 + cap / 8) {
      CandidateSet real;
      NaiveCandidateSet naive;
      FlatIdMap<MirrorSlot> mirror;
      const auto ranked_read = [&] {
        ASSERT_EQ(real.KthDist(k), naive.KthDist(k));
        ExpectSameNeighbors(real.TopK(k), naive.TopK(k));
        if (::testing::Test::HasFatalFailure()) return;
        // The rebuild handed the nearest-keys array only the tracked
        // range: the footprint is the map's array plus cap keys.
        ASSERT_LE(real.MemoryBytes(),
                  mirror.MemoryBytes() +
                      cap * sizeof(std::pair<double, ObjectId>))
            << real.size() << " candidates";
      };
      std::size_t next = 0;
      const auto add = [&](double dist) {
        const ObjectId id = pool[next++ % pool.size()];
        if (naive.DistanceOf(id)) return;
        real.Offer(id, dist);
        naive.Offer(id, dist);
        mirror.Insert(MirrorSlot{id, 1, 0});
      };
      while (naive.size() < n) {
        add(static_cast<double>(rng.NextIndex(512)) * 0.125);
      }
      ranked_read();
      if (::testing::Test::HasFatalFailure()) return;
      for (int round = 0; round < rounds; ++round) {
        const std::size_t run = 1 + rng.NextIndex(8);
        for (std::size_t op = 0; op < run; ++op) {
          // A key inside the tracked range.
          const std::vector<Neighbor> tracked =
              naive.TopK(static_cast<int>(cap));
          const Neighbor victim = tracked[rng.NextIndex(tracked.size())];
          if (rng.NextBool(0.5)) {
            ASSERT_EQ(real.Remove(victim.id), naive.Remove(victim.id));
            mirror.Erase(mirror.Find(victim.id));
          } else {
            const double raised =
                victim.distance + 0.125 * (1 + rng.NextIndex(256));
            real.Set(victim.id, raised);
            naive.Set(victim.id, raised);
          }
        }
        ranked_read();
        if (::testing::Test::HasFatalFailure()) return;
        // Refill toward n so the set keeps more candidates than it tracks.
        while (naive.size() < n) {
          add(static_cast<double>(rng.NextIndex(512)) * 0.125);
        }
      }
      ExpectSameState(real, naive, pool);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace cknn
