// Differential fuzz of FlatIdMap, the one id -> slot core under every
// engine (expansion trees, frontier labels, heap positions, candidate sets
// and the object table), against a std::unordered_map model.
//
// The keys come from pools that include 0, 2^26, 2^32 - 1 and 2^64 - 1 in
// a 64-bit slot whose vacancy mark is a separate flag, so a sentinel key or
// a hash that drops the high bits would show. Tapes alternate growing and
// draining phases so the array both doubles and halves, and mix Insert,
// Find (with in-place payload updates), Erase, EraseIf and Clear; every
// few operations the whole observable state is compared: Find for every
// pool key, size, and the ForEach multiset. Fixed cases pin the resize
// rules: the array halves once erases leave it below 1/8 load, and Clear
// keeps the capacity.
//
// Runs under the `fuzz` label; seeds via CKNN_FUZZ_SEED, iteration budget
// via CKNN_FUZZ_SCALE (tests/fuzz_util.h).

#include "src/util/flat_id_map.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/util/rng.h"
#include "tests/fuzz_util.h"

namespace cknn {
namespace {

/// A slot keyed by a full 64-bit id; `used` is the vacancy mark, so every
/// key value is usable.
struct Slot {
  std::uint64_t id = 0;
  std::uint32_t value = 0;
  bool used = false;

  bool vacant() const { return !used; }
  std::uint64_t key() const { return id; }
};

Slot Make(std::uint64_t id, std::uint32_t value) {
  return Slot{id, value, true};
}

using Model = std::unordered_map<std::uint64_t, std::uint32_t>;

std::size_t Capacity(const FlatIdMap<Slot>& map) {
  return map.MemoryBytes() / sizeof(Slot);
}

/// Keys at the ends of the id ranges the engines use.
std::vector<std::uint64_t> SpecialKeys() {
  return {0, std::uint64_t{1} << 26, std::uint64_t{0xFFFFFFFF},
          std::numeric_limits<std::uint64_t>::max()};
}

/// `n` distinct keys: the special keys, then dense small keys or keys
/// 2^26 + 1 apart (spanning the 32-bit boundary).
std::vector<std::uint64_t> KeyPool(std::size_t n, bool spread) {
  const std::vector<std::uint64_t> special = SpecialKeys();
  std::vector<std::uint64_t> pool = special;
  for (std::uint64_t i = 1; pool.size() < n; ++i) {
    const std::uint64_t key = spread ? i * ((std::uint64_t{1} << 26) + 1) : i;
    if (std::find(special.begin(), special.end(), key) == special.end()) {
      pool.push_back(key);
    }
  }
  return pool;
}

/// Every observable of the map matches the model.
void ExpectSameState(const FlatIdMap<Slot>& map, const Model& model,
                     const std::vector<std::uint64_t>& pool) {
  ASSERT_EQ(map.size(), model.size());
  ASSERT_EQ(map.empty(), model.empty());
  for (const std::uint64_t key : pool) {
    const Slot* slot = map.Find(key);
    const auto it = model.find(key);
    ASSERT_EQ(slot != nullptr, it != model.end()) << "key " << key;
    if (slot != nullptr) {
      ASSERT_EQ(slot->id, key);
      ASSERT_EQ(slot->value, it->second) << "key " << key;
    }
  }
  std::vector<std::pair<std::uint64_t, std::uint32_t>> seen;
  map.ForEach(
      [&](const Slot& slot) { seen.emplace_back(slot.id, slot.value); });
  std::vector<std::pair<std::uint64_t, std::uint32_t>> want(model.begin(),
                                                            model.end());
  std::sort(seen.begin(), seen.end());
  std::sort(want.begin(), want.end());
  ASSERT_EQ(seen, want);
}

class FlatIdMapFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FlatIdMapFuzzTest, AgreesWithUnorderedMap) {
  Rng rng(testing::FuzzSeed(static_cast<std::uint64_t>(GetParam())) * 7919);
  // Seeds 3-6 space the pool's keys 2^26 + 1 apart; odd seeds use a pool
  // large enough for several doublings.
  const bool spread = GetParam() >= 3;
  const std::vector<std::uint64_t> pool =
      KeyPool(GetParam() % 2 == 1 ? 600 : 40, spread);
  const int num_ops = testing::FuzzIterations(/*default_iters=*/20000,
                                              /*hard_cap=*/2000000);
  FlatIdMap<Slot> map;
  Model model;
  // Phases of 500 operations alternate between mostly inserting and
  // mostly erasing, so the array grows and shrinks repeatedly.
  for (int op = 0; op < num_ops; ++op) {
    const bool growing = (op / 500) % 2 == 0;
    const std::uint64_t key = pool[rng.NextIndex(pool.size())];
    const std::uint32_t value = static_cast<std::uint32_t>(rng.NextIndex(1000));
    const std::size_t pick = rng.NextIndex(100);
    if (pick < (growing ? 60u : 25u)) {
      const auto [slot, inserted] = map.Insert(Make(key, value));
      const auto [it, model_inserted] = model.emplace(key, value);
      ASSERT_EQ(inserted, model_inserted) << "key " << key;
      ASSERT_EQ(slot->id, key);
      ASSERT_EQ(slot->value, it->second);
    } else if (pick < 75) {
      Slot* slot = map.Find(key);
      const auto it = model.find(key);
      ASSERT_EQ(slot != nullptr, it != model.end()) << "key " << key;
      if (slot != nullptr) {
        slot->value = value;  // Payload updates through Find stick.
        it->second = value;
      }
    } else if (pick < 97) {
      Slot* slot = map.Find(key);
      ASSERT_EQ(slot != nullptr, model.count(key) != 0) << "key " << key;
      if (slot != nullptr) map.Erase(slot);
      model.erase(key);
    } else if (pick < 99) {
      const std::uint32_t modulus =
          2 + static_cast<std::uint32_t>(rng.NextIndex(5));
      map.EraseIf([&](const Slot& slot) { return slot.value % modulus == 0; });
      for (auto it = model.begin(); it != model.end();) {
        it = it->second % modulus == 0 ? model.erase(it) : std::next(it);
      }
    } else if (rng.NextIndex(10) == 0) {
      map.Clear();
      model.clear();
    }
    // The resize rules hold after every operation.
    const std::size_t capacity = Capacity(map);
    if (capacity != 0) {
      ASSERT_LE(map.size() * 4, capacity * 3) << "op " << op;
    }
    if (op % 50 == 0) {
      ExpectSameState(map, model, pool);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  ExpectSameState(map, model, pool);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatIdMapFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(FlatIdMapTest, SpecialKeysAreOrdinaryKeys) {
  FlatIdMap<Slot> map;
  EXPECT_EQ(map.MemoryBytes(), 0u);  // No array before the first insert.
  EXPECT_EQ(map.Find(0), nullptr);
  const std::vector<std::uint64_t> keys = SpecialKeys();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto value = static_cast<std::uint32_t>(i);
    EXPECT_TRUE(map.Insert(Make(keys[i], value)).second);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Slot* slot = map.Find(keys[i]);
    ASSERT_NE(slot, nullptr) << "key " << keys[i];
    EXPECT_EQ(slot->value, i);
  }
  EXPECT_FALSE(map.Insert(Make(0, 99)).second);  // Present: not replaced.
  EXPECT_EQ(map.Find(0)->value, 0u);
  map.Erase(map.Find(std::numeric_limits<std::uint64_t>::max()));
  EXPECT_EQ(map.Find(std::numeric_limits<std::uint64_t>::max()), nullptr);
  EXPECT_EQ(map.size(), keys.size() - 1);
}

TEST(FlatIdMapTest, ArrayHalvesBelowOneEighthLoad) {
  FlatIdMap<Slot> map;
  for (std::uint64_t k = 0; k < 1024; ++k) map.Insert(Make(k << 20, 0));
  ASSERT_EQ(Capacity(map), 2048u);
  // Erasing down to 256 entries (1/8 load) keeps the array; one more
  // erase halves it.
  std::uint64_t next = 0;
  while (map.size() > 256) map.Erase(map.Find(next++ << 20));
  EXPECT_EQ(Capacity(map), 2048u);
  map.Erase(map.Find(next++ << 20));
  EXPECT_EQ(Capacity(map), 1024u);
  // Every erase keeps the load at or above 1/8 down to the minimum array.
  while (!map.empty()) {
    map.Erase(map.Find(next++ << 20));
    EXPECT_TRUE(map.size() * 8 >= Capacity(map) || Capacity(map) == 16u)
        << map.size() << " entries in " << Capacity(map) << " slots";
  }
  EXPECT_EQ(Capacity(map), 16u);
  // EraseIf shrinks once, to the same rule.
  for (std::uint64_t k = 0; k < 1024; ++k) map.Insert(Make(k, 0));
  map.EraseIf([](const Slot& slot) { return slot.id >= 3; });
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(Capacity(map), 16u);
  for (std::uint64_t k = 0; k < 3; ++k) EXPECT_NE(map.Find(k), nullptr);
}

TEST(FlatIdMapTest, ClearKeepsCapacity) {
  FlatIdMap<Slot> map;
  for (std::uint64_t k = 0; k < 1000; ++k) map.Insert(Make(k * 977, 1));
  const std::size_t bytes = map.MemoryBytes();
  map.Clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.MemoryBytes(), bytes);
  int visited = 0;
  map.ForEach([&](const Slot&) { ++visited; });
  EXPECT_EQ(visited, 0);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(map.Find(k * 977), nullptr);
  }
  for (std::uint64_t k = 0; k < 1000; ++k) map.Insert(Make(k * 977, 2));
  EXPECT_EQ(map.MemoryBytes(), bytes);
  EXPECT_EQ(map.Find(977)->value, 2u);
}

TEST(FlatIdMapTest, ForEachMutableUpdatesPayloadsInPlace) {
  FlatIdMap<Slot> map;
  for (std::uint64_t k = 0; k < 100; ++k) map.Insert(Make(k << 33, 1));
  map.ForEachMutable([](Slot& slot) { slot.value = 7; });
  for (std::uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(map.Find(k << 33)->value, 7u);
  }
}

}  // namespace
}  // namespace cknn
