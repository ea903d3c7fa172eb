// Stress suite for the thread pool (src/util/thread_pool.h): repeated
// Begin/Wait batches with interleaved empty batches, 0-worker pools,
// destruction while parked, and randomized batch sizes and worker counts.
// Runs under the `threads` label, which the CI sanitize lane executes
// with ThreadSanitizer — the interleaving cases exist primarily so TSan
// can chew on them.

#include "src/util/thread_pool.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/util/rng.h"
#include "tests/fuzz_util.h"

namespace cknn {
namespace {

std::vector<std::function<void()>> CountingTasks(std::size_t n,
                                                 std::atomic<int>* counter) {
  std::vector<std::function<void()>> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    tasks.push_back([counter] {
      counter->fetch_add(1, std::memory_order_relaxed);
    });
  }
  return tasks;
}

TEST(ThreadPoolTest, RepeatedBatchesWithInterleavedEmptyBatches) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_workers(), 3u);
  std::atomic<int> counter{0};
  int expected = 0;
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = static_cast<std::size_t>(round % 7);
    const auto tasks = CountingTasks(n, &counter);
    pool.Begin(tasks);  // Every 7th batch is empty.
    pool.Wait();
    expected += static_cast<int>(n);
    ASSERT_EQ(counter.load(), expected) << "round " << round;
  }
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsEverythingInWait) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0u);
  std::atomic<int> counter{0};
  for (int round = 1; round <= 3; ++round) {
    const auto tasks = CountingTasks(4, &counter);
    pool.Begin(tasks);
    EXPECT_EQ(counter.load(), 4 * (round - 1));  // Nothing runs before Wait.
    pool.Wait();
    EXPECT_EQ(counter.load(), 4 * round);
  }
}

TEST(ThreadPoolTest, DestructionWhileParked) {
  // Freshly built, never used.
  { ThreadPool pool(4); }
  // Used, then parked between batches.
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    const auto tasks = CountingTasks(16, &counter);
    pool.Begin(tasks);
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 16);
  // Several batches, then parked.
  {
    ThreadPool pool(2);
    for (int round = 0; round < 3; ++round) {
      const auto tasks = CountingTasks(3, &counter);
      pool.Begin(tasks);
      pool.Wait();
    }
  }
  EXPECT_EQ(counter.load(), 25);
}

TEST(ThreadPoolTest, WaitWithoutBeginIsANoOp) {
  ThreadPool pool(2);
  pool.Wait();
  std::atomic<int> counter{0};
  const auto empty = CountingTasks(0, &counter);
  pool.Begin(empty);  // Empty batch: nothing to run.
  pool.Wait();
  pool.Wait();
  EXPECT_EQ(counter.load(), 0);
}

TEST(ThreadPoolTest, DetachedBatchesMakeProgressWithoutWait) {
  // A batch must not require Wait() to start: with workers present it
  // drains in the background while the owner is busy.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  const auto tasks = CountingTasks(8, &counter);
  pool.Begin(tasks);
  // Not asserted with a timeout (single-core hosts may legitimately not
  // have scheduled the workers yet); Wait() is the contract.
  pool.Wait();
  EXPECT_EQ(counter.load(), 8);
}

TEST(ThreadPoolTest, RandomizedBeginWaitStress) {
  // Randomized batch sizes and worker counts. Each task writes its own
  // plain (non-atomic) slot — the shard set's per-shard state shape — so
  // every slot must read back exactly after Wait. Seeded via
  // CKNN_FUZZ_SEED, budget via CKNN_FUZZ_SCALE (tests/fuzz_util.h).
  const int cases = testing::FuzzIterations(4, 16);
  for (int c = 0; c < cases; ++c) {
    const std::uint64_t seed = testing::FuzzSeed(8000 + c);
    SCOPED_TRACE("case " + std::to_string(c) + " seed " +
                 std::to_string(seed));
    Rng rng(seed);
    ThreadPool pool(static_cast<int>(rng.NextIndex(5)));  // 0..4 workers.
    std::vector<int> slots;
    const int rounds = testing::FuzzIterations(20, 200);
    for (int round = 0; round < rounds; ++round) {
      const std::size_t n = rng.NextIndex(6);
      slots.assign(n, -1);
      std::vector<std::function<void()>> tasks;
      for (std::size_t i = 0; i < n; ++i) {
        tasks.push_back([&slots, i, round] {
          slots[i] = round * 8 + static_cast<int>(i);
        });
      }
      pool.Begin(tasks);
      pool.Wait();
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(slots[i], round * 8 + static_cast<int>(i))
            << "round " << round << " slot " << i;
      }
    }
  }
}

}  // namespace
}  // namespace cknn
