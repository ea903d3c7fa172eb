// SlotTable, the dense id -> record table under the IMA engine's queries
// and GMA's user queries and active nodes: slots stay put while a record
// lives, erased slots are reset and reused, walks go in slot order, and a
// seeded tape of inserts and erases agrees with a std::map model.

#include "src/util/slot_table.h"

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "src/util/rng.h"

namespace cknn {
namespace {

using Table = SlotTable<std::uint32_t, std::vector<int>>;

TEST(SlotTableTest, SlotsAreStableAndReusedAfterErase) {
  Table table;
  const auto [a, a_new] = table.Insert(7);
  const auto [b, b_new] = table.Insert(0xFFFFFFFFu);  // Every id is a key.
  EXPECT_TRUE(a_new);
  EXPECT_TRUE(b_new);
  EXPECT_NE(a, b);
  table[a].assign(100, 1);
  EXPECT_EQ(table.Insert(7), std::make_pair(a, false));
  EXPECT_EQ(table.SlotOf(0xFFFFFFFFu), b);
  EXPECT_EQ(table.IdAt(b), 0xFFFFFFFFu);
  EXPECT_EQ(table.size(), 2u);

  table.Erase(a);
  EXPECT_EQ(table.SlotOf(7), Table::kNoSlot);
  EXPECT_EQ(table.Find(7), nullptr);
  EXPECT_FALSE(table.Live(a));
  // The erased record was reset, releasing what it owned.
  EXPECT_EQ(table[a].capacity(), 0u);

  const auto [c, c_new] = table.Insert(9);
  EXPECT_TRUE(c_new);
  EXPECT_EQ(c, a);  // The freed slot is handed out again.
  EXPECT_TRUE(table[c].empty());
  EXPECT_EQ(table.NumSlots(), 2u);
}

TEST(SlotTableTest, WalksInSlotOrder) {
  Table table;
  for (std::uint32_t id : {50u, 10u, 40u, 20u}) table.Insert(id);
  table.Erase(table.SlotOf(10));
  std::vector<std::uint32_t> seen;
  table.ForEach([&](Table::Slot slot, const std::vector<int>&) {
    seen.push_back(table.IdAt(slot));
  });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{50, 40, 20}));
}

TEST(SlotTableTest, AgreesWithMapModel) {
  Rng rng(31);
  Table table;
  std::map<std::uint32_t, int> model;  // id -> payload
  for (int op = 0; op < 20000; ++op) {
    const auto id = static_cast<std::uint32_t>(rng.NextIndex(300) << 20);
    if (rng.NextBool(0.55)) {
      const auto [slot, inserted] = table.Insert(id);
      ASSERT_EQ(inserted, model.count(id) == 0);
      if (inserted) {
        table[slot].push_back(op);
        model[id] = op;
      }
    } else if (const Table::Slot slot = table.SlotOf(id);
               slot != Table::kNoSlot) {
      ASSERT_EQ(model.count(id), 1u);
      table.Erase(slot);
      model.erase(id);
    } else {
      ASSERT_EQ(model.count(id), 0u);
    }
    ASSERT_EQ(table.size(), model.size());
  }
  std::map<std::uint32_t, int> walked;
  table.ForEach([&](Table::Slot slot, const std::vector<int>& payload) {
    ASSERT_EQ(payload.size(), 1u);
    walked[table.IdAt(slot)] = payload[0];
  });
  EXPECT_EQ(walked, model);
  for (const auto& [id, payload] : model) {
    const std::vector<int>* found = table.Find(id);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ((*found)[0], payload);
  }
  // Slots never outnumber the most records live at once.
  EXPECT_LE(table.NumSlots(), 300u);
}

}  // namespace
}  // namespace cknn
