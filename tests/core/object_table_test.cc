#include "src/core/object_table.h"

#include <algorithm>

#include "gtest/gtest.h"

namespace cknn {
namespace {

TEST(ObjectTableTest, InsertAndLookup) {
  ObjectTable table(4);
  table.Insert(7, NetworkPoint{2, 0.5});
  EXPECT_TRUE(table.Contains(7));
  EXPECT_EQ(table.size(), 1u);
  auto pos = table.Position(7);
  ASSERT_TRUE(pos.ok());
  EXPECT_EQ(pos->edge, 2u);
  EXPECT_DOUBLE_EQ(pos->t, 0.5);
  EXPECT_EQ(table.ObjectsOn(2).size(), 1u);
  EXPECT_TRUE(table.ObjectsOn(0).empty());
}

// The mutators' preconditions are admission rules of the server's
// Prepare; the table asserts them.
TEST(ObjectTableTest, DuplicateInsertAborts) {
  ObjectTable table(2);
  table.Insert(1, NetworkPoint{0, 0.1});
  EXPECT_DEATH(table.Insert(1, NetworkPoint{1, 0.2}), "CKNN_CHECK failed");
}

TEST(ObjectTableTest, InsertOnUnknownEdgeAborts) {
  ObjectTable table(2);
  EXPECT_DEATH(table.Insert(1, NetworkPoint{5, 0.1}), "CKNN_CHECK failed");
}

TEST(ObjectTableTest, RemoveDetachesFromEdge) {
  ObjectTable table(2);
  table.Insert(1, NetworkPoint{0, 0.1});
  table.Insert(2, NetworkPoint{0, 0.9});
  table.Remove(1);
  EXPECT_FALSE(table.Contains(1));
  EXPECT_EQ(table.ObjectsOn(0).size(), 1u);
  EXPECT_EQ(table.ObjectsOn(0)[0].id, 2u);
  EXPECT_EQ(table.ObjectsOn(0)[0].t(), 0.9);
  EXPECT_DEATH(table.Remove(1), "CKNN_CHECK failed");
}

TEST(ObjectTableTest, MoveAcrossEdges) {
  ObjectTable table(3);
  table.Insert(5, NetworkPoint{0, 0.5});
  table.Move(5, NetworkPoint{2, 0.25});
  EXPECT_TRUE(table.ObjectsOn(0).empty());
  EXPECT_EQ(table.ObjectsOn(2).size(), 1u);
  EXPECT_DOUBLE_EQ(table.Position(5)->t, 0.25);
}

TEST(ObjectTableTest, MoveWithinEdgeKeepsSingleEntry) {
  ObjectTable table(1);
  table.Insert(5, NetworkPoint{0, 0.5});
  table.Move(5, NetworkPoint{0, 0.6});
  EXPECT_EQ(table.ObjectsOn(0).size(), 1u);
  EXPECT_DOUBLE_EQ(table.Position(5)->t, 0.6);
  EXPECT_EQ(table.ObjectsOn(0)[0].t(), 0.6);  // Offset updated in place.
}

TEST(ObjectTableTest, MoveUnknownAborts) {
  ObjectTable table(1);
  EXPECT_DEATH(table.Move(9, NetworkPoint{0, 0.1}), "CKNN_CHECK failed");
}

TEST(ObjectTableTest, ManyObjectsPerEdge) {
  ObjectTable table(1);
  for (ObjectId i = 0; i < 100; ++i) {
    table.Insert(i, NetworkPoint{0, i / 100.0});
  }
  EXPECT_EQ(table.ObjectsOn(0).size(), 100u);
  for (ObjectId i = 0; i < 100; i += 2) {
    table.Remove(i);
  }
  auto on_edge = table.ObjectsOn(0);
  EXPECT_EQ(on_edge.size(), 50u);
  EXPECT_TRUE(std::all_of(on_edge.begin(), on_edge.end(),
                          [](const EdgeObject& obj) {
                            return obj.id % 2 == 1 && obj.t() == obj.id / 100.0;
                          }));
}

TEST(ObjectTableTest, MemoryBytesGrows) {
  ObjectTable table(10);
  const std::size_t before = table.MemoryBytes();
  for (ObjectId i = 0; i < 64; ++i) {
    table.Insert(i, NetworkPoint{i % 10, 0.5});
  }
  EXPECT_GT(table.MemoryBytes(), before);
}

}  // namespace
}  // namespace cknn
