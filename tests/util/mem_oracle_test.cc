// MemoryBytes() audit oracle: every footprint estimate of the expansion
// hot-path structures must stay within 2x of what the allocator actually
// hands out. The whole test binary replaces global operator new/delete
// with a malloc_usable_size-counting pair, so "actual" includes allocator
// rounding — the honest number the paper's Figure-18 memory experiment
// competes against. Structures dominated by sub-16-byte node allocations
// are deliberately excluded (their per-chunk overhead exceeds the payload;
// their estimates document payload bytes by design, see src/util/mem.h).

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>

#if defined(__GLIBC__) || defined(__linux__)
#include <malloc.h>
#define CKNN_HAVE_MALLOC_USABLE_SIZE 1
#endif

#include "gtest/gtest.h"
#include "src/core/expansion.h"
#include "src/core/gma.h"
#include "src/core/ima.h"
#include "src/core/object_table.h"
#include "src/core/top_k.h"
#include "src/util/flat_id_map.h"
#include "src/util/indexed_min_heap.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

#if CKNN_HAVE_MALLOC_USABLE_SIZE

namespace {
// Constant-initialized: operator new runs before any dynamic initializer.
std::atomic<std::size_t> g_live_bytes{0};

void* TrackedAlloc(std::size_t n) {
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(malloc_usable_size(p), std::memory_order_relaxed);
  return p;
}

void TrackedFree(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) { return TrackedAlloc(n); }
void* operator new[](std::size_t n) { return TrackedAlloc(n); }
void operator delete(void* p) noexcept { TrackedFree(p); }
void operator delete[](void* p) noexcept { TrackedFree(p); }
void operator delete(void* p, std::size_t) noexcept { TrackedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { TrackedFree(p); }

#endif  // CKNN_HAVE_MALLOC_USABLE_SIZE

namespace cknn {
namespace {

#if CKNN_HAVE_MALLOC_USABLE_SIZE

/// Builds a structure on the heap via `build` (returning a unique_ptr),
/// then checks its MemoryBytes() against the live-byte delta the build
/// actually caused: actual/2 <= estimate <= actual*2.
template <typename Build>
void ExpectEstimateWithinOracle(const char* what, Build&& build) {
  const std::size_t before = g_live_bytes.load(std::memory_order_relaxed);
  auto holder = build();
  const std::size_t after = g_live_bytes.load(std::memory_order_relaxed);
  ASSERT_GT(after, before) << what << ": build allocated nothing";
  const std::size_t actual = after - before;
  const std::size_t estimate = holder->MemoryBytes();
  EXPECT_GE(2 * estimate, actual)
      << what << ": estimate " << estimate << " is under half of actual "
      << actual;
  EXPECT_LE(estimate, 2 * actual)
      << what << ": estimate " << estimate << " is over twice actual "
      << actual;
}

/// A 16-byte slot of an id -> double map; a NaN value marks a vacant slot.
struct IdValueSlot {
  std::uint64_t id = 0;
  double value = std::numeric_limits<double>::quiet_NaN();

  bool vacant() const { return std::isnan(value); }
  std::uint64_t key() const { return id; }
};

TEST(MemOracleTest, FlatIdMap) {
  ExpectEstimateWithinOracle("FlatIdMap", [] {
    auto map = std::make_unique<FlatIdMap<IdValueSlot>>();
    for (std::uint64_t id = 0; id < 20000; ++id) {
      map->Insert(IdValueSlot{id * 3, static_cast<double>(id)});
    }
    for (std::uint64_t id = 0; id < 200; ++id) {  // Far past the node ids.
      map->Insert(IdValueSlot{(std::uint64_t{1} << 40) + id * 977,
                              static_cast<double>(id)});
    }
    return map;
  });
}

TEST(MemOracleTest, IndexedMinHeap) {
  ExpectEstimateWithinOracle("IndexedMinHeap", [] {
    auto heap = std::make_unique<IndexedMinHeap>();
    Rng rng(7);
    for (std::uint64_t id = 0; id < 8000; ++id) {
      heap->Push(id, rng.NextDouble());
    }
    return heap;
  });
}

TEST(MemOracleTest, CandidateSet) {
  ExpectEstimateWithinOracle("CandidateSet", [] {
    auto cand = std::make_unique<CandidateSet>();
    Rng rng(13);
    for (ObjectId id = 0; id < 8000; ++id) {
      cand->Offer(id, rng.NextDouble());
    }
    cand->KthDist(64);  // Materialize the top array too.
    return cand;
  });
  // Removals shrink the map's array; the estimate follows it down.
  ExpectEstimateWithinOracle("CandidateSet after shrinking", [] {
    auto cand = std::make_unique<CandidateSet>();
    Rng rng(17);
    for (ObjectId id = 0; id < 8000; ++id) {
      cand->Offer(id << 16, rng.NextDouble());
    }
    cand->KthDist(64);
    for (ObjectId id = 0; id < 7700; ++id) cand->Remove(id << 16);
    return cand;
  });
}

TEST(MemOracleTest, ExpansionState) {
  ExpectEstimateWithinOracle("ExpansionState", [] {
    auto state = std::make_unique<ExpansionState>();
    state->ResetToPoint(NetworkPoint{0, 0.5});
    state->Settle(0, 0.0, kInvalidNode, kInvalidEdge);
    for (NodeId n = 1; n < 10000; ++n) {
      state->Settle(n, static_cast<double>(n), n - 1, 0);
    }
    return state;
  });
}

/// A 20x20 grid with 400 objects at random points; `rng` drives the
/// placement and whatever the caller draws next.
struct OracleWorld {
  explicit OracleWorld(std::uint64_t seed)
      : net(testing::MakeGrid(20)), objects(net.NumEdges()), rng(seed) {
    net.BuildAdjacencyIndex();
    for (ObjectId id = 0; id < 400; ++id) {
      objects.Insert(id, RandomPoint());
    }
  }
  NetworkPoint RandomPoint() {
    return NetworkPoint{static_cast<EdgeId>(rng.NextIndex(net.NumEdges())),
                        rng.NextDouble()};
  }
  /// Moves every 7th object (from `first`) to a random point, in the
  /// table and as a batch for the monitors.
  std::vector<ObjectUpdate> MoveObjects(ObjectId first) {
    std::vector<ObjectUpdate> moves;
    for (ObjectId id = first; id < 400; id += 7) {
      const NetworkPoint from = *objects.Position(id);
      const NetworkPoint to = RandomPoint();
      objects.Move(id, to);
      moves.push_back(ObjectUpdate{id, from, to});
    }
    return moves;
  }

  RoadNetwork net;
  ObjectTable objects;
  Rng rng;
};

TEST(MemOracleTest, ImaEngine) {
  // The network and objects are built OUTSIDE the measured build, so the
  // delta is the engine's own: the query slots and their id index, the
  // per-query trees, frontiers, known sets and covered-edge maps, and the
  // per-edge influence lists. The edge-increase ticks prune trees, which
  // fills and then clears the per-query edge vectors (their capacity
  // stays allocated and must be counted); the object moves route through
  // the influence lists, and removed queries leave free slots that later
  // installs reuse.
  OracleWorld world(23);
  ExpectEstimateWithinOracle("ImaEngine", [&] {
    auto engine = std::make_unique<ImaEngine>(&world.net, &world.objects);
    for (QueryId q = 0; q < 40; ++q) {
      engine->AddQuery(q, ExpansionSource::AtPoint(world.RandomPoint()), 8);
    }
    for (int tick = 0; tick < 3; ++tick) {
      std::vector<EdgeUpdate> increases;
      for (EdgeId e = static_cast<EdgeId>(tick); e < world.net.NumEdges();
           e += 13) {
        increases.push_back(EdgeUpdate{e, world.net.edge(e).weight * 1.5});
      }
      engine->ProcessUpdates(world.MoveObjects(static_cast<ObjectId>(tick)),
                             increases, {});
    }
    for (QueryId q = 0; q < 40; q += 4) {
      engine->RemoveQuery(q);
    }
    for (QueryId q = 100; q < 105; ++q) {
      engine->AddQuery(q, ExpansionSource::AtPoint(world.RandomPoint()), 8);
    }
    EXPECT_TRUE(engine->CheckInvariants().ok());
    return engine;
  });
}

TEST(MemOracleTest, Gma) {
  // As above for GMA: its user-query and active-node slots, influence
  // lists with intervals, per-query vectors and evaluation scratch, plus
  // the engine over the active nodes. The sequence table is shared graph
  // substrate that Gma::MemoryBytes leaves out, so it is built before the
  // measured build.
  OracleWorld world(29);
  ASSERT_NE(world.net.SharedSequences(), nullptr);
  ExpectEstimateWithinOracle("Gma", [&] {
    auto gma = std::make_unique<Gma>(&world.net, &world.objects);
    UpdateBatch install;
    for (QueryId q = 0; q < 40; ++q) {
      install.queries.push_back(QueryUpdate{
          q, QueryUpdate::Kind::kInstall, world.RandomPoint(), 8});
    }
    gma->ProcessTimestamp(install);
    for (int tick = 0; tick < 3; ++tick) {
      UpdateBatch batch;
      batch.objects = world.MoveObjects(static_cast<ObjectId>(tick));
      for (QueryId q = static_cast<QueryId>(tick); q < 40; q += 9) {
        batch.queries.push_back(QueryUpdate{
            q, QueryUpdate::Kind::kMove, world.RandomPoint(), 0});
      }
      gma->ProcessTimestamp(batch);
    }
    EXPECT_TRUE(gma->CheckInvariants().ok());
    EXPECT_TRUE(gma->engine().CheckInvariants().ok());
    return gma;
  });
}

TEST(MemOracleTest, RoadNetworkWithCsr) {
  ExpectEstimateWithinOracle("RoadNetwork", [] {
    auto net = std::make_unique<RoadNetwork>(testing::MakeGrid(40));
    net->BuildAdjacencyIndex();
    return net;
  });
}

TEST(MemOracleTest, WeightOverlay) {
  // A shard's true per-view increment: OverlayMemoryBytes() of a
  // SharedView must cover the weight vector it actually allocates — the
  // figure ShardSet::MemoryBytes (and so the gated monitor memory) counts
  // for each extra shard. The network is built OUTSIDE the measured
  // build, so the delta is only the overlay copy.
  RoadNetwork base = testing::MakeGrid(60);
  base.BuildAdjacencyIndex();
  ExpectEstimateWithinOracle("WeightOverlay", [&base] {
    struct Holder {
      RoadNetwork view;
      std::size_t MemoryBytes() const { return view.OverlayMemoryBytes(); }
    };
    return std::make_unique<Holder>(Holder{base.SharedView()});
  });
}

#else  // !CKNN_HAVE_MALLOC_USABLE_SIZE

TEST(MemOracleTest, SkippedWithoutMallocUsableSize) {
  GTEST_SKIP() << "malloc_usable_size unavailable on this platform";
}

#endif

}  // namespace
}  // namespace cknn
