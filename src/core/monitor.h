#ifndef CKNN_CORE_MONITOR_H_
#define CKNN_CORE_MONITOR_H_

#include <string_view>
#include <vector>

#include "src/core/updates.h"
#include "src/graph/types.h"
#include "src/util/status.h"

namespace cknn {

/// Monitoring algorithm selection.
enum class Algorithm {
  kIma,  ///< Incremental monitoring (Section 4).
  kGma,  ///< Group monitoring over sequences (Section 5).
  kOvh,  ///< Overhaul baseline: recompute everything each timestamp.
};

inline const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kIma:
      return "IMA";
    case Algorithm::kGma:
      return "GMA";
    case Algorithm::kOvh:
      return "OVH";
  }
  return "?";
}

/// \brief Interface of a continuous k-NN monitoring algorithm (IMA, GMA, or
/// the OVH baseline).
///
/// The monitor owns result maintenance. `ProcessTimestamp` receives the
/// (pre-aggregated) updates of one timestamp, applies the edge-weight
/// changes to its `RoadNetwork` view, and brings every registered query's
/// result up to date. The monitor only reads the `ObjectTable`: its owner
/// (the server's apply stage, src/core/server.h) applies the batch's
/// object updates to it exactly once, before `ProcessTimestamp` runs, and
/// the monitor routes them through its own maintenance structures.
class Monitor {
 public:
  virtual ~Monitor() = default;

  /// Processes one timestamp worth of updates. The batch must contain at
  /// most one update per object and edge, and at most one per query —
  /// except that a terminate may be immediately followed by an install of
  /// the same id (a within-timestamp re-installation; the server's
  /// aggregation emits the pair in that order, and every algorithm
  /// processes terminations before installations).
  virtual Status ProcessTimestamp(const UpdateBatch& batch) = 0;

  /// Current k-NN set of a registered query, in (distance, id) order.
  /// nullptr if the query is unknown.
  virtual const std::vector<Neighbor>* ResultOf(QueryId id) const = 0;

  /// Number of registered queries.
  virtual std::size_t NumQueries() const = 0;

  /// Estimated bytes of the monitoring structures (expansion trees,
  /// influence lists, result sets) — the quantity of Figure 18. Excludes
  /// read-only structures shared with co-resident monitors (see
  /// SharedMemoryBytes).
  virtual std::size_t MemoryBytes() const = 0;

  /// Estimated bytes of read-only structures this monitor *shares* with
  /// every co-resident monitor of the same graph (today: GMA's sequence
  /// table, cached once per `SharedTopology`). `ShardSet::MemoryBytes`
  /// counts them once across all shards instead of per shard. 0 for
  /// monitors without shared structures.
  virtual std::size_t SharedMemoryBytes() const { return 0; }

  /// Algorithm name for reports ("IMA", "GMA", "OVH").
  virtual std::string_view name() const = 0;
};

}  // namespace cknn

#endif  // CKNN_CORE_MONITOR_H_
