#ifndef CKNN_CORE_EXPANSION_H_
#define CKNN_CORE_EXPANSION_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/graph/network_point.h"
#include "src/graph/road_network.h"
#include "src/graph/types.h"
#include "src/util/flat_id_map.h"

namespace cknn {

/// \brief Where an expansion is rooted: either an arbitrary point on an edge
/// (user queries) or exactly at a node (GMA's active nodes).
struct ExpansionSource {
  bool at_node = false;
  NodeId node = kInvalidNode;
  NetworkPoint point;

  static ExpansionSource AtPoint(const NetworkPoint& p) {
    ExpansionSource s;
    s.at_node = false;
    s.point = p;
    return s;
  }
  static ExpansionSource AtNodeSource(NodeId n) {
    ExpansionSource s;
    s.at_node = true;
    s.node = n;
    return s;
  }
};

/// \brief The paper's expansion tree `q.tree` (Section 3): for every network
/// node verified by the expansion, its exact network distance from the
/// query plus the tree edge through which its shortest path arrives.
///
/// Influencing intervals are represented implicitly: an edge `(u,v,w)` is
/// covered iff one of its endpoints is settled (or it is the source edge),
/// and a position at weight-offset `o` from `u` is inside the influencing
/// interval iff `min(d(u)+o, d(v)+w-o) <= bound` (evaluating only settled
/// endpoints). This is equivalent to the paper's marks without per-edge
/// interval bookkeeping.
///
/// Storage is a `FlatIdMap` of slots that carry the node, its tree label
/// and intrusive first-child/next-sibling links, so subtree walks need no
/// separate parent -> children hash map. The map's array follows the
/// settled set, not the ids: it doubles as an expansion grows and halves
/// once prunes leave it below 1/8 load, so a query that moves across the
/// network pays for its tree, not for every id range it has visited. A
/// reset (`Clear`) vacates the array in O(capacity) and keeps it for
/// reuse.
///
/// The class exposes exactly the maintenance operations Sections 4.2-4.4
/// need: subtree pruning (weight increases, query movement), subtree
/// distance adjustment (weight decreases, re-rooting), and threshold pruning
/// (result shrinking, non-tree weight decreases).
class ExpansionState {
 public:
  struct SettledInfo {
    double dist = 0.0;
    NodeId parent = kInvalidNode;  ///< kInvalidNode for roots.
    EdgeId via_edge = kInvalidEdge;
  };

  ExpansionState() = default;

  /// Clears everything and re-roots at a point / node.
  void ResetToPoint(const NetworkPoint& p);
  void ResetToNode(NodeId n);

  const ExpansionSource& source() const { return source_; }

  /// Moves the source point without touching the settled set. Only the
  /// re-rooting path of query movement may call this (the caller is
  /// responsible for having adjusted the settled distances).
  void SetSourcePoint(const NetworkPoint& p);

  bool IsSettled(NodeId n) const { return settled_.Find(n) != nullptr; }
  std::optional<double> NodeDistance(NodeId n) const;
  const SettledInfo* Info(NodeId n) const;

  std::size_t NumSettled() const { return settled_.size(); }

  /// Calls `f(NodeId, const SettledInfo&)` for every settled node, in the
  /// map's array order: deterministic for a given operation history, but
  /// not sorted by node id.
  template <typename F>
  void ForEachSettled(F&& f) const {
    settled_.ForEach([&](const Slot& s) { f(s.node, s.info); });
  }

  /// Adds a verified node (not kInvalidNode). Checked error if already
  /// settled.
  void Settle(NodeId n, double dist, NodeId parent, EdgeId via_edge);

  /// The settled node whose shortest path arrives through `e` (the root of
  /// the subtree hanging below `e`), if any.
  std::optional<NodeId> TreeChildVia(const RoadNetwork& net, EdgeId e) const;

  /// Nodes of the subtree rooted at `root` (inclusive). O(subtree).
  std::vector<NodeId> SubtreeOf(NodeId root) const;

  /// Removes `root` and all its descendants (Fig. 8: weight increase).
  /// Returns the removed nodes (the caller repairs its frontier with them).
  std::vector<NodeId> PruneSubtree(NodeId root);

  /// Adds `delta` to the distance of every node in the subtree of `root`
  /// (Fig. 9: weight decrease). Returns the adjusted nodes.
  std::vector<NodeId> AdjustSubtree(NodeId root, double delta);

  /// Removes every settled node with distance > threshold (non-tree-edge
  /// weight decreases). Distance-monotone, so the remaining set stays
  /// ancestor-closed. Returns the removed nodes.
  std::vector<NodeId> PruneBeyond(double threshold);

  /// Keeps the subtree of `keep_root` plus every other node with distance
  /// <= threshold; removes the rest (Fig. 9's valid parts (i) + (ii)).
  /// Returns the removed nodes.
  std::vector<NodeId> PruneOthersBeyond(NodeId keep_root, double threshold);

  /// Re-roots the expansion at `new_source` keeping only the subtree of
  /// `subtree_root`, whose distances are shifted by `delta` (== minus the
  /// old distance of the new source point). The subtree root becomes a root
  /// of the new tree (Fig. 7: query movement within the tree).
  void ReRootToSubtree(NodeId subtree_root, const NetworkPoint& new_source,
                       double delta);

  /// `q.kNN_dist`: distance to the current k-th neighbor (+inf while fewer
  /// than k are known).
  double bound() const { return bound_; }
  void set_bound(double b) { bound_ = b; }

  /// Exact network distance from the source to `p`, provided `p` lies in
  /// the covered region (min over settled endpoints of p's edge, plus the
  /// along-edge path when p shares the source edge). nullopt when no
  /// settled endpoint exists. May be an upper bound for positions on
  /// partially covered boundary edges; see ima.cc for why that is safe.
  std::optional<double> PointDistance(const RoadNetwork& net,
                                      const NetworkPoint& p) const;

  /// True iff `e` is incident to a settled node or is the source edge.
  bool EdgeTouched(const RoadNetwork& net, EdgeId e) const;

  /// True iff weight-offset `o` from `e.u` lies inside e's influencing
  /// interval(s) for the current bound.
  bool InInfluencingInterval(const RoadNetwork& net, EdgeId e,
                             double offset_from_u) const;

  void Clear();

  /// Estimated heap footprint in bytes.
  std::size_t MemoryBytes() const;

  /// Largest settled distance ever reached since the last reset/re-root —
  /// an upper bound on the tree radius, used for lazy shrinking. It is
  /// deliberately *not* lowered by the pruning operations (EraseNodes keeps
  /// it as a monotone upper bound; recomputing the max over the survivors
  /// would cost O(settled) per prune), so it may overestimate until the
  /// caller re-anchors it via set_max_settled_dist.
  double max_settled_dist() const { return max_settled_dist_; }
  void set_max_settled_dist(double d) { max_settled_dist_ = d; }

 private:
  /// One settled node: its id (kInvalidNode marks a vacant slot), tree
  /// label, intrusive child-list links (children are linked newest-first)
  /// and a scratch stamp for set operations.
  struct Slot {
    SettledInfo info;
    NodeId node = kInvalidNode;
    NodeId first_child = kInvalidNode;
    NodeId next_sibling = kInvalidNode;
    std::uint32_t mark = 0;  ///< Live iff == mark_epoch_ (scratch).

    bool vacant() const { return node == kInvalidNode; }
    NodeId key() const { return node; }
  };
  static_assert(sizeof(Slot) == 32, "settled slots pack to 32 bytes");

  /// Removes `n` from its parent's child list (if the parent survives).
  void DetachFromParent(NodeId n, NodeId parent);
  /// Erases a batch of nodes; slots must all be live on entry. The nodes'
  /// `mark` stamps are consumed as the "also being erased" set, so parent
  /// links are only unlinked where the parent survives. max_settled_dist_
  /// is intentionally left untouched (monotone upper bound, see above).
  void EraseNodes(const std::vector<NodeId>& nodes);
  /// Bumps the scratch-mark epoch and stamps `nodes`.
  void MarkNodes(const std::vector<NodeId>& nodes);

  ExpansionSource source_;
  FlatIdMap<Slot> settled_;
  std::uint32_t mark_epoch_ = 0;
  double bound_ = kInfDist;
  double max_settled_dist_ = 0.0;
};

}  // namespace cknn

#endif  // CKNN_CORE_EXPANSION_H_
