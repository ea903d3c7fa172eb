#ifndef CKNN_CORE_IMA_H_
#define CKNN_CORE_IMA_H_

#include <cstdint>
#include <vector>

#include "src/core/expansion.h"
#include "src/core/knn_search.h"
#include "src/core/monitor.h"
#include "src/core/object_table.h"
#include "src/core/top_k.h"
#include "src/core/updates.h"
#include "src/graph/road_network.h"
#include "src/util/flat_id_map.h"
#include "src/util/slot_table.h"
#include "src/util/status.h"

namespace cknn {

/// \brief The incremental monitoring machinery of Section 4, factored as an
/// engine so that it can serve two masters:
///  * `Ima` monitors the user queries directly with it;
///  * `Gma` monitors the *active nodes* of Section 5 with it.
///
/// Per monitored query the engine owns the expansion tree
/// (`ExpansionState`), the persistent frontier (`Frontier` — the paper's
/// marks), and the known set (`CandidateSet`: every object discovered in
/// the covered region with its best known distance). Globally it owns the
/// influence lists (edge -> queries the edge affects), which route
/// updates to exactly the queries they can invalidate (Section 4.2).
///
/// The bookkeeping is flat, so routing an update allocates nothing and
/// probes no hash node: the queries live in dense slots (`SlotTable`), an
/// influence list is a short unordered vector of slots per edge (erased
/// by swapping with its last element), and each query's covered edges
/// are a `FlatIdMap`. Routing reaches a query by its slot, and the
/// rebuild pass walks the slots in index order.
///
/// Maintenance cost is proportional to the *invalidated region*, as in the
/// paper:
///  * object updates touch the known set and at most continue the expansion
///    from the live frontier (a heap peek when nothing grows);
///  * edge-weight updates adjust/prune only the affected subtree and repair
///    the frontier along the pruned boundary;
///  * query movement re-roots onto the valid subtree (Section 4.3).
///
/// `ProcessUpdates` implements the complete algorithm of Figure 10:
/// weight decreases first, then increases, then query movements, then
/// object updates, then one rebuild pass per affected query.
class ImaEngine {
 public:
  /// Movement request for a monitored query (Section 4.3).
  struct MoveRequest {
    QueryId id = kInvalidQuery;
    NetworkPoint pos;
  };

  /// Maintenance counters (ablation benches report these).
  struct Stats {
    std::uint64_t full_recomputes = 0;
    std::uint64_t reroots = 0;
    std::uint64_t rebuilds = 0;
    std::uint64_t updates_routed = 0;
    std::uint64_t updates_ignored = 0;
  };

  /// Both tables outlive the engine. ProcessUpdates applies edge updates
  /// to `net`; `objects` is only read — its owner applies a batch's object
  /// updates before handing the batch to ProcessUpdates.
  ImaEngine(RoadNetwork* net, const ObjectTable* objects);

  ImaEngine(const ImaEngine&) = delete;
  ImaEngine& operator=(const ImaEngine&) = delete;

  /// Registers a query and computes its initial result (Fig. 2).
  /// Requires a new id, `k >= 1` and a source on the network.
  void AddQuery(QueryId id, const ExpansionSource& source, int k);

  /// Unregisters a registered query and clears its influence-list entries.
  void RemoveQuery(QueryId id);

  /// Changes the number of monitored neighbors of a registered query to
  /// `k >= 1` (GMA adjusts n.k when the query population of a sequence
  /// changes). Returns whether the result changed.
  bool SetK(QueryId id, int k);

  bool HasQuery(QueryId id) const {
    return entries_.SlotOf(id) != Entries::kNoSlot;
  }
  std::size_t NumQueries() const { return entries_.size(); }

  /// Current result in (distance, id) order; nullptr if unknown.
  const std::vector<Neighbor>* ResultOf(QueryId id) const;

  /// Current q.kNN_dist; +inf while fewer than k neighbors exist.
  double BoundOf(QueryId id) const;

  /// Number of monitored neighbors of a query.
  int KOf(QueryId id) const;

  /// Expansion tree of a query (inspection for tests/diagnostics);
  /// nullptr if unknown.
  const ExpansionState* StateOf(QueryId id) const;

  /// Ids of the queries on an edge's influence list, ascending
  /// (inspection for tests/diagnostics).
  std::vector<QueryId> InfluenceOf(EdgeId e) const;

  /// Known set of a query (inspection for tests/diagnostics); nullptr if
  /// unknown.
  const CandidateSet* KnownOf(QueryId id) const {
    const Entry* entry = entries_.Find(id);
    return entry == nullptr ? nullptr : &entry->known;
  }

  /// Applies one timestamp of object/edge/movement updates (Fig. 10) and
  /// returns the ids of queries whose result changed.
  std::vector<QueryId> ProcessUpdates(
      const std::vector<ObjectUpdate>& object_updates,
      const std::vector<EdgeUpdate>& edge_updates,
      const std::vector<MoveRequest>& moves);

  std::size_t MemoryBytes() const;
  const Stats& stats() const { return stats_; }

  /// Verifies the engine's internal invariants (tree label consistency,
  /// known-set/coverage/influence-list agreement, no query twice on one
  /// influence list, frontier sanity).
  /// O(everything) — used by the property tests and for diagnostics.
  Status CheckInvariants() const;

  /// \name Ablation switches (default on; see bench/ablations)
  /// @{
  /// Off: affecting updates trigger from-scratch recomputation instead of
  /// expansion-tree reuse.
  void set_use_tree_reuse(bool on) { use_tree_reuse_ = on; }
  /// Off: every update is routed to every query (no influence-list
  /// filtering); non-affecting ones are still detected, but only after a
  /// per-query probe.
  void set_use_influence_filter(bool on) { use_influence_filter_ = on; }
  /// @}

 private:
  /// One covered edge of a query (vacant: kInvalidEdge, never an edge).
  struct CoveredEdge {
    EdgeId edge = kInvalidEdge;

    bool vacant() const { return edge == kInvalidEdge; }
    EdgeId key() const { return edge; }
  };

  struct Entry {
    ExpansionSource source;
    int k = 1;
    ExpansionState state;
    Frontier frontier;
    CandidateSet known;
    std::vector<Neighbor> result;
    /// Edges holding this query in their influence list.
    FlatIdMap<CoveredEdge> covered;
    /// Edges whose objects must be re-derived before the next rebuild
    /// (duplicates allowed; deduplicated before the walk).
    std::vector<EdgeId> rescan_edges;
    /// Edges that may have left the covered region (duplicates allowed).
    /// Influence-list removal is deferred to the rebuild phase: within the
    /// timestamp, object updates must still be routed through these edges
    /// (Fig. 10 processes edge updates *before* object updates), and no
    /// routing handler may edit the influence list it is walking.
    std::vector<EdgeId> pending_uncover;
    bool needs_recompute = false;
    bool affected = false;
    /// Re-derive every known distance and rebuild coverage wholesale
    /// (set by re-rooting, where all distances shift frames).
    bool full_refresh = false;
  };

  using Entries = SlotTable<QueryId, Entry>;
  /// Dense index of a query's entry; influence lists hold these.
  using Slot = Entries::Slot;

  void ApplyEdgeDecrease(const EdgeUpdate& update);
  void ApplyEdgeIncrease(const EdgeUpdate& update);
  void ApplyMove(const MoveRequest& move);
  void ApplyObjectUpdate(const ObjectUpdate& update);

  /// \name Frontier / coverage repairs (cost: O(region x degree))
  /// @{
  /// After settled nodes were removed: drops orphaned tentative labels,
  /// re-derives boundary candidates from the surviving settled set, and
  /// marks the region's edges for object re-derivation and for the
  /// deferred coverage shrink.
  void RepairAfterRemoval(Entry* entry, const std::vector<NodeId>& removed);
  /// After subtree distances were lowered: re-relaxes the region's frontier
  /// and marks its edges for object re-derivation.
  void RepairAfterAdjust(Entry* entry, const std::vector<NodeId>& adjusted);
  /// After an edge's weight changed: re-derives tentative labels that went
  /// through it (stale keys would otherwise settle wrongly).
  void RepairEdgeKeys(Entry* entry, EdgeId edge);
  /// Re-relaxes one unsettled node from all its settled neighbors and,
  /// for an endpoint of the query's own edge, straight from the query.
  void RederiveFrontierNode(Entry* entry, NodeId n);
  /// After a subtree was lowered: prunes every settled node farther than
  /// the nearest frontier key, so that no unsettled node is nearer than a
  /// settled one.
  void RestorePrefix(Entry* entry);
  /// @}

  /// Continues the expansion of an affected entry and refreshes its
  /// result. Returns whether the result changed.
  bool RebuildEntry(Slot slot, Entry* entry);
  /// After an expansion: prunes the tree back to the nearest frontier key
  /// and, lazily, to a slack over the bound.
  void ShrinkTree(Entry* entry);
  /// From-scratch recomputation (Fig. 2). Returns whether result changed.
  bool RecomputeEntry(Slot slot, Entry* entry);

  /// Re-derives the distances of objects on one edge in the known set.
  void RescanEdge(Entry* entry, EdgeId e);
  /// Re-derives the known distances on every edge of `rescan_edges`
  /// (once per edge) and empties it.
  void RescanPending(Entry* entry);
  /// Re-derives every known distance (re-rooting).
  void RefreshKnownAll(Entry* entry);
  /// Recomputes the covered-edge set from scratch and diffs the influence
  /// lists accordingly.
  void RebuildCoverage(Slot slot, Entry* entry);
  /// Adds the incident edges of newly settled nodes to the coverage.
  void GrowCoverage(Slot slot, Entry* entry,
                    const std::vector<NodeId>& fresh);
  /// Removes `slot` from the influence list of `e`.
  void Uninfluence(EdgeId e, Slot slot);

  /// Extracts the new top-k result; returns whether it changed.
  bool ExtractResult(Entry* entry);

  /// Invokes fn(entry) for every query influenced by `e` (or every query
  /// when influence filtering is disabled). The list is walked in place,
  /// with no copy: `fn` must not edit any influence list, so handlers
  /// leave coverage shrinking to the rebuild pass (`pending_uncover`).
  template <typename Fn>
  void ForEachInfluenced(EdgeId e, Fn&& fn);

  RoadNetwork* net_;
  const ObjectTable* objects_;
  Entries entries_;
  /// Influence lists, indexed by edge (the `e.IL` of Section 3): the
  /// slots of the queries the edge affects, unordered, each at most once.
  std::vector<std::vector<Slot>> influence_;
  /// Reused scratch: a coverage rebuild's edges, a removal's nodes (for
  /// membership tests), a re-root's known ids.
  std::vector<EdgeId> edge_scratch_;
  std::vector<NodeId> node_scratch_;
  std::vector<ObjectId> object_scratch_;
  Stats stats_;
  bool use_tree_reuse_ = true;
  bool use_influence_filter_ = true;
};

/// \brief IMA — the incremental monitoring algorithm (Section 4) as a
/// user-facing Monitor: each continuous query is monitored individually
/// through its own expansion tree and influence lists.
class Ima : public Monitor {
 public:
  Ima(RoadNetwork* net, const ObjectTable* objects) : engine_(net, objects) {}

  void ProcessTimestamp(const UpdateBatch& batch) override;
  const std::vector<Neighbor>* ResultOf(QueryId id) const override {
    return engine_.ResultOf(id);
  }
  std::size_t NumQueries() const override { return engine_.NumQueries(); }
  std::size_t MemoryBytes() const override { return engine_.MemoryBytes(); }
  std::string_view name() const override { return "IMA"; }

  ImaEngine& engine() { return engine_; }
  const ImaEngine& engine() const { return engine_; }

 private:
  ImaEngine engine_;
};

}  // namespace cknn

#endif  // CKNN_CORE_IMA_H_
