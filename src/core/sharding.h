#ifndef CKNN_CORE_SHARDING_H_
#define CKNN_CORE_SHARDING_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "src/core/monitor.h"
#include "src/core/object_table.h"
#include "src/core/updates.h"
#include "src/graph/road_network.h"
#include "src/util/annotations.h"
#include "src/util/macros.h"
#include "src/util/result.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace cknn {

/// \brief Sharded update-processing backend of the monitoring server
/// (see docs/sharding.md and docs/pipeline.md).
///
/// The monitored queries are partitioned across `num_shards` shards by
/// `ShardOf(id) == id % num_shards`. Each shard owns a full monitoring
/// engine (IMA, GMA, or OVH) for its queries over
///  * the *shared* object table — mutated exactly once per tick by the
///    server before the shards run, read-only during the parallel phase
///    (engines never write it, see `Monitor`), and
///  * its *own view* of the road network (`RoadNetwork::SharedView`):
///    the immutable topology is shared by pointer across all shards,
///    each shard holds only a private flat weight vector
///    (docs/network_views.md) and applies every edge-weight update to it
///    — so all views carry identical weights at every timestamp without
///    cross-shard synchronization, at 8 bytes/edge per extra shard
///    instead of a full clone.
///    Shard 0 monitors the server's primary network in place.
///
/// Per tick the server aggregates the batch once, `Partition` fans the
/// query updates out to their owning shards (object and edge updates are
/// broadcast), the shards run their maintenance in parallel on a fixed
/// thread pool, and statuses/metrics are merged in shard order — so the
/// outcome is deterministic and per-query results are identical for every
/// shard count, including `num_shards == 1`.
///
/// A tick runs detached: `BeginProcessTimestamp` hands one task per shard
/// to a pool of `num_shards` workers and returns, leaving the calling
/// thread free to prepare the next tick (the server's pipelined ingest);
/// `WaitProcessTimestamp` joins it, with the calling thread helping run
/// any shard no worker has claimed yet. A blocking tick is the two calls
/// back to back.
class ShardSet {
 public:
  /// \param primary_network the server's network; shard 0 monitors it in
  ///        place, shards 1..N-1 monitor their own shared-topology views
  ///        of it. Must outlive the shard set.
  /// \param objects the shared object table, mutated only by the caller
  ///        (between ticks, before BeginProcessTimestamp). Must outlive
  ///        the shard set.
  ShardSet(RoadNetwork* primary_network, const ObjectTable* objects,
           Algorithm algorithm, int num_shards);

  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  /// Waits out any still-in-flight detached tick before the engines are
  /// torn down (the tasks reference shard state).
  ~ShardSet();

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Owning shard of a query id (stable, id-based partition).
  int ShardOf(QueryId id) const {
    return static_cast<int>(id % shards_.size());
  }

  /// Starts one timestamp of (already aggregated and validated) updates
  /// detached: partitions `aggregated` into per-shard batches and hands
  /// the shard tasks to the pool workers. The caller has already applied
  /// the batch's object updates to the shared table. The batch is taken
  /// by value and moved into the last shard's slot, so a single shard
  /// copies nothing. Requires no tick already in flight.
  void BeginProcessTimestamp(UpdateBatch aggregated);

  /// Blocks until the detached tick finished (helping drain unstarted
  /// shards) and returns the first non-OK shard status in shard order.
  Status WaitProcessTimestamp();

  /// Whether a detached tick is currently in flight. While true, engine
  /// state (results, registries, shard networks) must not be read.
  bool InFlight() const {
    owner_role_.Assert();
    return in_flight_;
  }

  /// Result of a query, routed to its owning shard.
  const std::vector<Neighbor>* ResultOf(QueryId id) const {
    owner_role_.Assert();
    CKNN_CHECK(!in_flight_);
    return shards_[ShardOf(id)].monitor->ResultOf(id);
  }

  /// \name Non-aborting accessor variants for client-facing callers.
  ///
  /// The CHECK-guarded accessors above are internal invariants: the
  /// engine's own pipeline never reads mid-flight, so tripping the CHECK
  /// there is a bug. A serving front end, however, takes reads from
  /// clients at arbitrary times; these variants turn the same in-flight
  /// condition into a FailedPrecondition status so a well-timed read can
  /// never crash the process.
  /// @{

  /// Result of a query without the CHECK: FailedPrecondition while a
  /// detached tick is in flight, otherwise OK with `*out` set to the
  /// k-NN list — nullptr when the query is unknown.
  Status TryResultOf(QueryId id, const std::vector<Neighbor>** out) const {
    owner_role_.Assert();
    if (in_flight_) {
      return Status::FailedPrecondition(
          "results unavailable: a detached tick is in flight (Drain first)");
    }
    *out = shards_[ShardOf(id)].monitor->ResultOf(id);
    return Status::OK();
  }

  /// NumQueries without the CHECK (FailedPrecondition while in flight).
  Result<std::size_t> TryNumQueries() const;

  /// MemoryBytes without the CHECK (FailedPrecondition while in flight).
  Result<std::size_t> TryMemoryBytes() const;

  /// @}

  /// Whether a query is registered, according to the caller-side registry
  /// — the same answer as probing the owning engine for every validated
  /// update stream, but safe to consult while a detached tick is mutating
  /// the engines (the registry is folded on the calling thread when a
  /// tick is submitted).
  bool IsRegistered(QueryId id) const {
    owner_role_.Assert();
    return registered_.count(id) != 0;
  }

  /// Registered queries across all shards.
  std::size_t NumQueries() const;

  /// Monitoring-structure bytes summed over the shards (shard order, so
  /// the sum is reproducible), including each extra shard's private
  /// weight overlay and — once, not per shard — the read-only structures
  /// the monitors share (`Monitor::SharedMemoryBytes`). The primary
  /// network and shared topology are graph substrate owned by the
  /// server, not monitoring structures, and stay excluded.
  std::size_t MemoryBytes() const;

  Monitor& monitor(int shard) { return *shards_[shard].monitor; }
  const Monitor& monitor(int shard) const { return *shards_[shard].monitor; }

 private:
  struct Shard {
    /// Shared-topology view of the primary network with a private weight
    /// overlay (nullptr for shard 0, which uses the primary in place).
    std::unique_ptr<RoadNetwork> network;
    std::unique_ptr<Monitor> monitor;
    /// Per-tick scratch: this shard's slice of the aggregated batch.
    UpdateBatch sub;
    Status status;
  };

  /// Splits `aggregated` into the per-shard `sub` batches: query updates
  /// go to their owning shard, object and edge updates are copied to
  /// every shard but the last, which takes them by move.
  void Partition(UpdateBatch aggregated) CKNN_REQUIRES(owner_role_);

  /// Folds the batch's install/terminate updates into `registered_`
  /// (called on the submitting thread, before the shards run).
  void UpdateRegistry(const UpdateBatch& aggregated)
      CKNN_REQUIRES(owner_role_);

  /// First non-OK shard status in shard order.
  Status MergeStatuses() const;

  std::vector<Shard> shards_;
  /// ShardSet is synchronized by protocol, not by a lock: exactly one
  /// thread submits ticks and reads results, and the parallel phase's
  /// writes reach it through the pool's completion barrier. The role
  /// capability makes that contract checkable — every public entry point
  /// asserts it, so the protocol state below cannot be reached from a
  /// path the analysis has not seen claim ownership (docs/sharding.md,
  /// docs/static_analysis.md).
  ThreadRole owner_role_;
  /// Query ids registered after every tick submitted so far; mirrors the
  /// engines' registries for validated input (see IsRegistered).
  std::unordered_set<QueryId> registered_ CKNN_GUARDED_BY(owner_role_);
  /// Per-tick task closures, one per shard; must outlive the pool batch,
  /// so they live here rather than on the Begin caller's stack.
  std::vector<std::function<void()>> tasks_ CKNN_GUARDED_BY(owner_role_);
  bool in_flight_ CKNN_GUARDED_BY(owner_role_) = false;
  /// One worker per shard, so every shard can run off the calling thread.
  ThreadPool pool_;
};

}  // namespace cknn

#endif  // CKNN_CORE_SHARDING_H_
