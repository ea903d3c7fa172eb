#ifndef CKNN_CORE_SERVER_H_
#define CKNN_CORE_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/core/monitor.h"
#include "src/core/object_table.h"
#include "src/core/sharding.h"
#include "src/core/updates.h"
#include "src/graph/road_network.h"
#include "src/spatial/pmr_quadtree.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace cknn {

/// \name Admission rules of one raw update, each against the entity's
/// running state (the pre-batch tables plus its earlier updates in the
/// batch). `MonitoringServer` validates every raw batch with them, and the
/// serving front end (src/serve/front_end.h) checks each request with the
/// same functions, so a request it admits is one the server admits.
/// @{

/// Against the object's running position (nullopt while absent).
Status CheckObjectUpdate(const ObjectUpdate& u,
                         const std::optional<NetworkPoint>& current,
                         std::size_t num_edges);

/// Against the query's running registration.
Status CheckQueryUpdate(const QueryUpdate& u, bool registered,
                        std::size_t num_edges);

/// Known edge, finite non-negative weight (NaN fails every `<`
/// comparison, so `new_weight < 0.0` alone would let it through).
Status CheckEdgeUpdate(const EdgeUpdate& u, std::size_t num_edges);

/// @}

/// \brief The central monitoring server of Section 3: owns the road
/// network, the spatial index *SI* (PMR quadtree over the edges), the
/// object table, and the monitored queries — partitioned across one or
/// more worker shards (see src/core/sharding.h and docs/sharding.md).
///
/// Per timestamp, clients feed the server one `UpdateBatch`; `Tick` runs a
/// deterministic pipeline:
///  1. validate every raw update, in stream order (objects, queries,
///     edges), against the shared tables plus the entity's own earlier
///     updates in the batch — exactly the checks a one-update-per-tick
///     replay makes; the batch's status is that of the first failing
///     update. This is the only stage that refuses an update: the object
///     table and the engines assert the rules it enforces,
///  2. fold each entity's updates into one (Section 4.5's preprocessing
///     step, `AggregateBatch`),
///  3. apply the object updates to the shared object table,
///  4. broadcast object/edge updates — and route query updates — to the
///     shards, which run their per-shard maintenance in parallel,
///  5. merge metrics (query counts, memory) in shard order; a shard
///     returns no status, because stage 1 has refused every update it
///     could not process.
/// With the default single shard this degenerates to the serial algorithm
/// of the paper; with `num_shards > 1` per-query results are identical
/// (same bytes) for IMA/OVH and identical within the conformance distance
/// tolerance for GMA, whose active-node grouping is shard-local
/// (docs/sharding.md).
///
/// Every tick takes one path, `SubmitBatch` (docs/pipeline.md): stages
/// 1–2 run on the submitting thread, the apply barrier waits for any
/// in-flight tick, stage 3 applies, and stage 4 starts detached on the
/// shards' pool workers. With `pipeline_depth == 2` `SubmitBatch` returns
/// there, so stages 1–2 of tick t+1 overlap the maintenance of tick t;
/// the strict apply barrier keeps every result byte-identical to serial
/// execution. With `pipeline_depth == 1` it drains before returning, so
/// depth-1 `SubmitBatch` is `Tick`.
///
/// Positions may be given directly as `NetworkPoint`s or as raw
/// coordinates snapped through the spatial index.
class MonitoringServer {
 public:
  /// Takes ownership of the network. The network topology is fixed for the
  /// lifetime of the server; weights change through edge updates.
  /// `num_shards >= 1` selects the worker-shard count (1 = serial);
  /// `pipeline_depth` in {1, 2} selects synchronous ticks or
  /// double-buffered asynchronous ingest.
  MonitoringServer(RoadNetwork network, Algorithm algorithm,
                   int num_shards = 1, int pipeline_depth = 1);

  MonitoringServer(const MonitoringServer&) = delete;
  MonitoringServer& operator=(const MonitoringServer&) = delete;

  /// Processes one timestamp of updates (aggregating duplicates per
  /// entity) and advances the clock. Equivalent to `SubmitBatch` followed
  /// by `Drain`, at every pipeline depth.
  Status Tick(const UpdateBatch& batch);

  /// Submits one timestamp of updates: validates and folds the batch on
  /// the calling thread — overlapping any in-flight tick's shard
  /// maintenance — then waits for that tick (the apply barrier), applies
  /// the object updates, and starts this tick's maintenance detached. At
  /// depth 2 it returns with the tick in flight; at depth 1 it drains
  /// first, which makes it `Tick`. Validation errors are reported
  /// synchronously and leave the server exactly as if the call had not
  /// been made (any in-flight tick keeps running).
  Status SubmitBatch(const UpdateBatch& batch);

  /// Blocks until no tick is in flight. Must be called (or implied via
  /// `Tick`) before reading results, metrics, or tables. Always OK: a
  /// tick that `SubmitBatch` admitted cannot fail.
  Status Drain();

  /// Whether a submitted tick is still being maintained by the shards.
  bool InFlight() const { return shards_.InFlight(); }

  /// \name Convenience single-entity operations (each runs a mini-tick).
  /// @{
  Status InstallQuery(QueryId id, const NetworkPoint& pos, int k);
  Status TerminateQuery(QueryId id);
  Status MoveQuery(QueryId id, const NetworkPoint& pos);
  Status AddObject(ObjectId id, const NetworkPoint& pos);
  Status RemoveObject(ObjectId id);
  Status MoveObject(ObjectId id, const NetworkPoint& pos);
  Status UpdateEdgeWeight(EdgeId edge, double new_weight);
  /// @}

  /// Snaps raw coordinates to the nearest point on the network through the
  /// PMR quadtree (how coordinate-only location updates are interpreted).
  Result<NetworkPoint> Snap(const Point& p) const;

  /// Current k-NN set of a query, nullptr if unknown. Routed to the
  /// query's owning shard. Requires a drained server.
  const std::vector<Neighbor>* ResultOf(QueryId id) const {
    return shards_.ResultOf(id);
  }

  /// \name Non-aborting read accessors (serving front ends).
  /// Same data as `ResultOf`/`MonitorMemoryBytes`, but an in-flight tick
  /// yields FailedPrecondition instead of tripping the internal CHECK — a
  /// client read can never crash the server.
  /// @{
  Status TryResultOf(QueryId id, const std::vector<Neighbor>** out) const {
    return shards_.TryResultOf(id, out);
  }
  Result<std::size_t> TryMonitorMemoryBytes() const {
    return shards_.TryMemoryBytes();
  }
  /// @}

  const RoadNetwork& network() const { return network_; }
  const ObjectTable& objects() const { return objects_; }
  const PmrQuadtree& spatial_index() const { return *spatial_index_; }
  Algorithm algorithm() const { return algorithm_; }
  std::uint64_t timestamp() const { return timestamp_; }
  int pipeline_depth() const { return pipeline_depth_; }

  /// Shard 0's monitor — with the default single shard, *the* monitor.
  /// (Kept for diagnostics and tests that reach into engine internals.)
  Monitor& monitor() { return shards_.monitor(0); }
  const Monitor& monitor() const { return shards_.monitor(0); }

  int num_shards() const { return shards_.num_shards(); }
  ShardSet& shards() { return shards_; }
  const ShardSet& shards() const { return shards_; }

  /// Registered queries across all shards. Requires a drained server.
  std::size_t NumQueries() const { return shards_.NumQueries(); }

  /// Monitoring-structure bytes (Figure 18's quantity), summed over the
  /// shards in shard order. Requires a drained server.
  std::size_t MonitorMemoryBytes() const { return shards_.MemoryBytes(); }

  /// Whole-server bytes: the monitoring structures (MonitorMemoryBytes)
  /// plus the object table, the primary network (shared topology and its
  /// weights) and the spatial index. Requires a drained server.
  std::size_t MemoryBytes() const;

  /// Collapses multiple updates per object/query/edge into at most one, as
  /// required by the algorithms (Section 4.5), each emitted where its
  /// entity first appeared: an object chain folds to (first old position,
  /// last new position) and cancels out if the object appears and
  /// disappears; edges keep their last weight; a terminated and
  /// re-installed query folds to a terminate immediately followed by an
  /// install (see Monitor::ProcessTimestamp). Assumes sequentially valid
  /// input — the server validates before it folds — and streams shorter
  /// than 2^32 - 1 updates. Exposed for testing.
  static UpdateBatch AggregateBatch(const UpdateBatch& batch);

 private:
  /// Stages 1–2: validates the raw batch, then folds it. Mutates nothing,
  /// so it is safe while a detached tick is in flight: it reads only the
  /// object table (read-only during the parallel phase), the network
  /// topology, and the shard set's caller-side query registry.
  Result<UpdateBatch> Prepare(const UpdateBatch& batch) const;

  /// Stage 3: applies the batch's object updates to the shared table.
  void ApplyObjectUpdates(const UpdateBatch& aggregated);

  RoadNetwork network_;
  ObjectTable objects_;
  std::unique_ptr<PmrQuadtree> spatial_index_;
  Algorithm algorithm_;
  int pipeline_depth_;
  ShardSet shards_;
  std::uint64_t timestamp_ = 0;
};

}  // namespace cknn

#endif  // CKNN_CORE_SERVER_H_
