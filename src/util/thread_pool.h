#ifndef CKNN_UTIL_THREAD_POOL_H_
#define CKNN_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/util/annotations.h"
#include "src/util/macros.h"

namespace cknn {

/// \brief Small fixed pool of worker threads that runs one detached batch
/// of tasks at a time.
///
/// `Begin(tasks)` hands the tasks to the workers and returns immediately;
/// the caller is free to do other work and later calls `Wait`, where it
/// helps drain whatever is still unclaimed and blocks until the batch
/// finished. At most one batch may be in flight, and `Begin`/`Wait` must
/// be called from one owning thread.
///
/// Tasks must not throw and must handle their own synchronization for any
/// state shared between them; the pool guarantees that all writes made by a
/// batch's tasks are visible to the thread that completed its `Wait`. The
/// task vector must stay alive until that `Wait`.
///
/// The workers are started once and parked between batches, so per-batch
/// dispatch cost is a mutex hand-off, not thread creation. A pool of 0
/// workers is allowed: its batches run entirely inside `Wait`.
class ThreadPool {
 public:
  explicit ThreadPool(int num_workers) {
    CKNN_CHECK(num_workers >= 0);
    workers_.reserve(static_cast<std::size_t>(num_workers));
    for (int i = 0; i < num_workers; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins the workers. A `Begin` batch MUST be `Wait`ed before the pool
  /// — or the batch's task vector — is destroyed: parked workers exit
  /// without claiming, but a worker already draining the batch keeps
  /// claiming and running its tasks while the destructor joins, so
  /// dropping the vector early is a use-after-free. (ShardSet complies:
  /// its destructor Waits any in-flight tick first.)
  ~ThreadPool() CKNN_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      shutdown_ = true;
    }
    wake_.NotifyAll();
    for (std::thread& t : workers_) t.join();
  }

  std::size_t num_workers() const { return workers_.size(); }

  /// Starts a batch: the workers begin claiming immediately, the caller
  /// returns. `tasks` must outlive the matching `Wait()`.
  void Begin(const std::vector<std::function<void()>>& tasks)
      CKNN_EXCLUDES(mu_) {
    if (tasks.empty()) return;
    auto batch = std::make_shared<Batch>();
    batch->tasks = &tasks;
    batch->size = tasks.size();
    batch->pending = tasks.size();
    {
      MutexLock lock(mu_);
      CKNN_CHECK(current_ == nullptr);
      current_ = std::move(batch);
    }
    wake_.NotifyAll();
  }

  /// Blocks until the batch finished, helping drain unclaimed tasks. A
  /// `Wait` without a preceding `Begin` (or after a `Begin` of an empty
  /// task vector) is a no-op.
  void Wait() CKNN_EXCLUDES(mu_) {
    std::shared_ptr<Batch> batch;
    {
      MutexLock lock(mu_);
      batch = current_;
    }
    if (batch == nullptr) return;
    DrainTasks(*batch);
    MutexLock lock(mu_);
    while (batch->pending != 0) done_.Wait(mu_);
    current_ = nullptr;
  }

 private:
  struct Batch {
    const std::vector<std::function<void()>>* tasks = nullptr;
    std::size_t size = 0;
    /// Claim index. May grow past `size`; claims with i >= size are no-ops,
    /// so a straggler that wakes up holding an exhausted batch can never
    /// touch a task vector that has been destroyed (claims with i < size
    /// happen only while `Wait` is still blocked, when the vector is
    /// alive). Shared ownership keeps the straggler's claim off the next
    /// batch's index.
    std::atomic<std::size_t> next{0};
    /// Unfinished tasks; guarded by the owning pool's mu_ (a nested struct
    /// cannot name the outer capability in CKNN_GUARDED_BY, so every
    /// access holds the pool's mu_ instead).
    std::size_t pending = 0;
  };

  /// Claims and runs tasks from `batch` until its index is exhausted,
  /// waking `Wait` on the last completion.
  void DrainTasks(Batch& batch) CKNN_EXCLUDES(mu_) {
    while (true) {
      const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= batch.size) return;
      (*batch.tasks)[i]();
      MutexLock lock(mu_);
      if (--batch.pending == 0) done_.NotifyAll();
    }
  }

  /// Whether the current batch has unclaimed tasks. mu_ held.
  bool ClaimableLocked() const CKNN_REQUIRES(mu_) {
    return current_ != nullptr &&
           current_->next.load(std::memory_order_relaxed) < current_->size;
  }

  void WorkerLoop() CKNN_EXCLUDES(mu_) {
    while (true) {
      std::shared_ptr<Batch> batch;
      {
        MutexLock lock(mu_);
        while (!shutdown_ && !ClaimableLocked()) wake_.Wait(mu_);
        if (shutdown_) return;
        batch = current_;
      }
      DrainTasks(*batch);
    }
  }

  Mutex mu_;
  CondVar wake_;
  CondVar done_;
  std::vector<std::thread> workers_;
  /// The in-flight batch, nullptr between `Wait` and the next `Begin`.
  std::shared_ptr<Batch> current_ CKNN_GUARDED_BY(mu_);
  bool shutdown_ CKNN_GUARDED_BY(mu_) = false;
};

}  // namespace cknn

#endif  // CKNN_UTIL_THREAD_POOL_H_
