#include "src/util/mem.h"

#include <cstdint>
#include <vector>

#include "gtest/gtest.h"

namespace cknn {
namespace {

TEST(MemTest, VectorBytesEmpty) {
  std::vector<int> v;
  EXPECT_EQ(VectorBytes(v), v.capacity() * sizeof(int));
}

TEST(MemTest, VectorBytesTracksCapacityNotSize) {
  std::vector<double> v;
  v.reserve(100);
  v.push_back(1.0);
  EXPECT_EQ(VectorBytes(v), v.capacity() * sizeof(double));
  EXPECT_GE(VectorBytes(v), 100 * sizeof(double));
}

TEST(MemTest, VectorBytesGrowsWithElements) {
  std::vector<std::uint64_t> v;
  const std::size_t empty_bytes = VectorBytes(v);
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_GT(VectorBytes(v), empty_bytes);
  EXPECT_GE(VectorBytes(v), 1000 * sizeof(std::uint64_t));
}

}  // namespace
}  // namespace cknn
