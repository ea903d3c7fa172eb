#ifndef CKNN_CORE_KNN_SEARCH_H_
#define CKNN_CORE_KNN_SEARCH_H_

#include <vector>

#include "src/core/expansion.h"
#include "src/core/object_table.h"
#include "src/core/top_k.h"
#include "src/graph/road_network.h"
#include "src/util/flat_id_map.h"
#include "src/util/indexed_min_heap.h"
#include "src/util/mem.h"

namespace cknn {

/// Counters for one expansion run; the ablation benches report these.
struct ExpandStats {
  std::size_t nodes_settled = 0;
  std::size_t heap_pushes = 0;
  std::size_t objects_offered = 0;
};

/// \brief The expansion frontier — the persistent representation of the
/// paper's *marks*: every un-verified node reachable from the settled
/// region, keyed by its best tentative distance, with the tree label it
/// would settle with.
///
/// Keeping the frontier alive between timestamps is what makes IMA's
/// maintenance proportional to the invalidated region: when only objects
/// moved, continuing the expansion costs a single heap peek, and when an
/// edge update prunes part of the tree, only the pruned boundary has to be
/// repaired (see ima.cc).
struct Frontier {
  /// Tentative tree label of an en-heaped node: the parent it would settle
  /// under and the edge it would arrive through. kInvalidNode in `node`
  /// marks a vacant slot.
  struct Label {
    NodeId node = kInvalidNode;
    NodeId parent = kInvalidNode;
    EdgeId via = kInvalidEdge;

    bool vacant() const { return node == kInvalidNode; }
    NodeId key() const { return node; }
  };

  IndexedMinHeap heap;
  /// The label of each en-heaped node.
  FlatIdMap<Label> pending;

  void Clear() {
    heap.Clear();
    pending.Clear();
  }

  /// Inserts or improves a tentative node. Skips nodes already settled in
  /// `state`. Returns true if the frontier changed.
  bool Relax(const ExpansionState& state, NodeId n, double dist,
             NodeId parent, EdgeId via) {
    if (state.IsSettled(n)) return false;
    const bool changed = heap.PushOrDecrease(n, dist);
    if (changed) {
      const Label label{n, parent, via};
      *pending.Insert(label).first = label;
    }
    return changed;
  }

  /// Drops a tentative node if present.
  void Erase(NodeId n) {
    heap.Erase(n);
    if (Label* label = pending.Find(n)) pending.Erase(label);
  }

  /// Estimated heap footprint: the heap (entry array plus its position
  /// index) and the tentative-label map.
  std::size_t MemoryBytes() const {
    return heap.MemoryBytes() + pending.MemoryBytes();
  }
};

/// \brief Dijkstra network expansion — the initial-result algorithm of the
/// paper's Figure 2, generalized into a resumable form.
///
/// Continues the expansion of (`state`, `frontier`) until the next frontier
/// node is farther than the current k-th candidate distance
/// (`candidates->KthDist(k)`, +inf while fewer than k candidates are
/// known). When `state` is empty the frontier is (re)seeded from the
/// source; the source edge's endpoints are always re-relaxed (they can be
/// lost to shortcut prunes). Each settled node contributes the objects on
/// its incident edges to `candidates`.
///
/// Newly settled nodes are appended to `newly_settled` (if given) so the
/// caller can update coverage/influence-list structures incrementally.
void ExpandToK(const RoadNetwork& net, const ObjectTable& objects, int k,
               ExpansionState* state, Frontier* frontier,
               CandidateSet* candidates,
               std::vector<NodeId>* newly_settled = nullptr,
               ExpandStats* stats = nullptr);

/// Rebuilds `frontier` from scratch: every settled->unsettled adjacency of
/// `state` is relaxed. Used after operations that invalidate tentative
/// labels wholesale (query re-rooting).
void RebuildFrontier(const RoadNetwork& net, const ExpansionState& state,
                     Frontier* frontier);

/// Reusable working set for one-shot searches: the expansion state, the
/// frontier, and the candidate accumulator. All three clear in
/// O(capacity) and keep their arrays, so a caller that runs many searches
/// per timestamp (OVH) pays no per-query allocation churn.
struct KnnScratch {
  ExpansionState state;
  Frontier frontier;
  CandidateSet candidates;

  std::size_t MemoryBytes() const {
    return state.MemoryBytes() + frontier.MemoryBytes() +
           candidates.MemoryBytes();
  }
};

/// Convenience: one-shot k-NN search from a point (what OVH runs per query
/// per timestamp). Returns the k nearest objects in (distance, id) order.
std::vector<Neighbor> SnapshotKnn(const RoadNetwork& net,
                                  const ObjectTable& objects,
                                  const NetworkPoint& source, int k,
                                  ExpandStats* stats = nullptr);

/// As above, but expanding inside `scratch` instead of fresh local
/// structures. The scratch is reset on entry and left holding the final
/// expansion (callers may inspect it; the next call clears it).
std::vector<Neighbor> SnapshotKnn(const RoadNetwork& net,
                                  const ObjectTable& objects,
                                  const NetworkPoint& source, int k,
                                  KnnScratch* scratch,
                                  ExpandStats* stats = nullptr);

}  // namespace cknn

#endif  // CKNN_CORE_KNN_SEARCH_H_
