#ifndef CKNN_CORE_OVH_H_
#define CKNN_CORE_OVH_H_

#include <vector>

#include "src/core/knn_search.h"
#include "src/core/monitor.h"
#include "src/core/object_table.h"
#include "src/core/updates.h"
#include "src/graph/road_network.h"
#include "src/util/slot_table.h"

namespace cknn {

/// \brief OVH — the overhaul baseline of Section 6: every query is
/// recomputed from scratch at every timestamp with the initial-result
/// algorithm of Figure 2. No expansion trees or influence lists are kept,
/// so its memory footprint is minimal but its CPU cost is insensitive to
/// how few updates actually matter.
class Ovh : public Monitor {
 public:
  Ovh(RoadNetwork* net, const ObjectTable* objects)
      : net_(net), objects_(objects) {
    net_->BuildAdjacencyIndex();  // SnapshotKnn iterates the CSR view.
  }

  void ProcessTimestamp(const UpdateBatch& batch) override;
  const std::vector<Neighbor>* ResultOf(QueryId id) const override;
  std::size_t NumQueries() const override { return queries_.size(); }
  std::size_t MemoryBytes() const override;
  std::string_view name() const override { return "OVH"; }

 private:
  struct UserQuery {
    NetworkPoint pos;
    int k = 1;
    std::vector<Neighbor> result;
  };

  using Queries = SlotTable<QueryId, UserQuery>;

  RoadNetwork* net_;
  const ObjectTable* objects_;
  Queries queries_;
  /// Reused across queries and timestamps (cleared per search).
  KnnScratch scratch_;
};

}  // namespace cknn

#endif  // CKNN_CORE_OVH_H_
