#include "src/core/ima.h"

#include <algorithm>

#include "src/graph/network_point.h"
#include "src/util/macros.h"
#include "src/util/mem.h"

namespace cknn {

ImaEngine::ImaEngine(RoadNetwork* net, const ObjectTable* objects)
    : net_(net), objects_(objects), influence_(net->NumEdges()) {
  CKNN_CHECK(net_ != nullptr);
  CKNN_CHECK(objects_ != nullptr);
  net_->BuildAdjacencyIndex();  // Expansion iterates the CSR view.
}

Status ImaEngine::AddQuery(QueryId id, const ExpansionSource& source,
                           int k) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (entries_.count(id) != 0) {
    return Status::AlreadyExists("query id already monitored");
  }
  if (!source.at_node && source.point.edge >= net_->NumEdges()) {
    return Status::InvalidArgument("query position on unknown edge");
  }
  if (source.at_node && source.node >= net_->NumNodes()) {
    return Status::InvalidArgument("query anchored at unknown node");
  }
  Entry& entry = entries_[id];
  entry.source = source;
  entry.k = k;
  RecomputeEntry(id, &entry);
  return Status::OK();
}

Status ImaEngine::RemoveQuery(QueryId id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return Status::NotFound("unknown query id");
  for (EdgeId e : it->second.covered) influence_[e].erase(id);
  entries_.erase(it);
  return Status::OK();
}

Result<bool> ImaEngine::SetK(QueryId id, int k) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  auto it = entries_.find(id);
  if (it == entries_.end()) return Status::NotFound("unknown query id");
  Entry& entry = it->second;
  if (entry.k == k) return false;
  entry.k = k;
  // Growing k continues the expansion from the live frontier; shrinking
  // only moves the bound.
  return RebuildEntry(id, &entry);
}

const std::vector<Neighbor>* ImaEngine::ResultOf(QueryId id) const {
  auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second.result;
}

double ImaEngine::BoundOf(QueryId id) const {
  auto it = entries_.find(id);
  CKNN_CHECK(it != entries_.end());
  return it->second.state.bound();
}

int ImaEngine::KOf(QueryId id) const {
  auto it = entries_.find(id);
  CKNN_CHECK(it != entries_.end());
  return it->second.k;
}

const ExpansionState* ImaEngine::StateOf(QueryId id) const {
  auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second.state;
}

template <typename Fn>
void ImaEngine::ForEachInfluenced(EdgeId e, Fn&& fn) {
  if (use_influence_filter_) {
    // Snapshot: fn may trigger coverage changes that edit influence_[e].
    // cknn-lint: allow(unordered-iter) handlers write only (id)-keyed state
    std::vector<QueryId> ids(influence_[e].begin(), influence_[e].end());
    for (QueryId id : ids) {
      auto it = entries_.find(id);
      CKNN_DCHECK(it != entries_.end());
      fn(id, &it->second);
    }
  } else {
    // cknn-lint: allow(unordered-iter) handlers write only (id)-keyed state
    for (auto& [id, entry] : entries_) {
      if (entry.state.EdgeTouched(*net_, e)) fn(id, &entry);
    }
  }
}

void ImaEngine::RederiveFrontierNode(Entry* entry, NodeId n) {
  const ExpansionSource& src = entry->source;
  if (!src.at_node) {
    // A pruned endpoint of the query's edge is reached straight along it.
    // Without that key the frontier's nearest key overstates the nearest
    // unsettled distance, and RestorePrefix keeps nodes beyond it.
    const RoadNetwork::Edge& ed = net_->edge(src.point.edge);
    if (n == ed.u) {
      entry->frontier.Relax(entry->state, n,
                            WeightOffsetFromU(*net_, src.point), kInvalidNode,
                            src.point.edge);
    }
    if (n == ed.v) {
      entry->frontier.Relax(entry->state, n,
                            WeightOffsetFromV(*net_, src.point), kInvalidNode,
                            src.point.edge);
    }
  }
  for (const RoadNetwork::Incidence& inc : net_->Incidences(n)) {
    if (auto d = entry->state.NodeDistance(inc.neighbor)) {
      entry->frontier.Relax(entry->state, n,
                            *d + net_->WeightOf(inc.edge), inc.neighbor,
                            inc.edge);
    }
  }
}

void ImaEngine::RepairAfterRemoval(QueryId id, Entry* entry,
                                   const std::vector<NodeId>& removed) {
  if (removed.empty()) return;
  std::unordered_set<NodeId> gone(removed.begin(), removed.end());
  // Tentative labels that pointed into the removed region are stale
  // (possibly stale-low); drop and re-derive them.
  std::vector<NodeId> to_rederive(removed.begin(), removed.end());
  entry->frontier.pending.ForEach([&](const Frontier::Label& label) {
    if (label.parent != kInvalidNode && gone.count(label.parent) != 0) {
      to_rederive.push_back(label.node);
    }
  });
  for (NodeId n : to_rederive) {
    if (gone.count(n) == 0) entry->frontier.Erase(n);
  }
  for (NodeId n : to_rederive) RederiveFrontierNode(entry, n);
  // Every incident edge's objects need re-derivation (their stored
  // distances may have gone through removed nodes), and the edges may have
  // left the covered region — but influence-list removal is deferred so
  // that this timestamp's object updates still reach the query.
  (void)id;
  for (NodeId r : removed) {
    for (const RoadNetwork::Incidence& inc : net_->Incidences(r)) {
      entry->rescan_edges.insert(inc.edge);
      entry->pending_uncover.insert(inc.edge);
    }
  }
}

void ImaEngine::RepairAfterAdjust(Entry* entry,
                                  const std::vector<NodeId>& adjusted) {
  for (NodeId a : adjusted) {
    const double d = *entry->state.NodeDistance(a);
    for (const RoadNetwork::Incidence& inc : net_->Incidences(a)) {
      entry->rescan_edges.insert(inc.edge);
      if (!entry->state.IsSettled(inc.neighbor)) {
        entry->frontier.Relax(entry->state, inc.neighbor,
                              d + net_->WeightOf(inc.edge), a, inc.edge);
      }
    }
  }
}

void ImaEngine::RepairEdgeKeys(Entry* entry, EdgeId edge) {
  const RoadNetwork::Edge& ed = net_->edge(edge);
  const NodeId ends[2] = {ed.u, ed.v};
  for (int i = 0; i < 2; ++i) {
    const NodeId node = ends[i];
    const NodeId other = ends[1 - i];
    if (entry->state.IsSettled(node)) continue;
    const auto* label = entry->frontier.pending.Find(node);
    if (label != nullptr && label->via == edge) {
      // The tentative label went through this edge with the old weight.
      entry->frontier.Erase(node);
      RederiveFrontierNode(entry, node);
    } else if (auto d = entry->state.NodeDistance(other)) {
      // The settled->unsettled relaxation across this edge may have become
      // the new best.
      entry->frontier.Relax(entry->state, node, *d + ed.weight, other, edge);
    }
  }
}

void ImaEngine::ApplyEdgeDecrease(const EdgeUpdate& update) {
  const EdgeId e = update.edge;
  const double new_w = update.new_weight;
  ForEachInfluenced(e, [&](QueryId id, Entry* entry) {
    if (entry->needs_recompute) return;
    if (!use_tree_reuse_) {
      entry->needs_recompute = true;
      return;
    }
    if (!entry->source.at_node && entry->source.point.edge == e) {
      // Weight change of the query's own edge: every root offset shifts;
      // recompute (see DESIGN.md, faithfulness notes).
      entry->needs_recompute = true;
      return;
    }
    if (auto child = entry->state.TreeChildVia(*net_, e)) {
      // Fig. 9: the subtree below the edge gets uniformly closer; the rest
      // is valid only up to the new distance of the subtree root.
      const double delta = net_->WeightOf(e) - new_w;
      const auto adjusted = entry->state.AdjustSubtree(*child, -delta);
      RepairAfterAdjust(entry, adjusted);
      const double threshold = *entry->state.NodeDistance(*child);
      const auto removed =
          entry->state.PruneOthersBeyond(*child, threshold);
      RepairAfterRemoval(id, entry, removed);
      // The nodes pruned beside the subtree may be nearer than its deep
      // end. The non-tree rule below bounds a path through an unsettled
      // endpoint by the settled one, which is sound only when no
      // unsettled node is nearer than a settled node; so a later decrease
      // in this timestamp needs that shape back.
      RestorePrefix(id, entry);
    } else {
      // Covered non-tree edge: a shortcut may improve anything farther than
      // the cheapest way through it.
      const RoadNetwork::Edge& ed = net_->edge(e);
      double min_end = kInfDist;
      if (auto d = entry->state.NodeDistance(ed.u)) {
        min_end = std::min(min_end, *d);
      }
      if (auto d = entry->state.NodeDistance(ed.v)) {
        min_end = std::min(min_end, *d);
      }
      if (min_end < kInfDist) {
        const auto removed = entry->state.PruneBeyond(min_end + new_w);
        RepairAfterRemoval(id, entry, removed);
      }
    }
    entry->rescan_edges.insert(e);
    entry->affected = true;
  });
  CKNN_CHECK(net_->SetWeight(e, new_w).ok());
  ForEachInfluenced(e, [&](QueryId, Entry* entry) {
    if (!entry->needs_recompute) RepairEdgeKeys(entry, e);
  });
}

void ImaEngine::RestorePrefix(QueryId id, Entry* entry) {
  if (entry->frontier.heap.empty()) return;
  // Every frontier key is a path length through a settled node, and every
  // path to an unsettled node leaves the settled set through a frontier
  // node, so the nearest key is the nearest unsettled distance.
  const double nearest = entry->frontier.heap.Top().key;
  RepairAfterRemoval(id, entry, entry->state.PruneBeyond(nearest));
}

void ImaEngine::ApplyEdgeIncrease(const EdgeUpdate& update) {
  const EdgeId e = update.edge;
  ForEachInfluenced(e, [&](QueryId id, Entry* entry) {
    if (entry->needs_recompute) return;
    if (!use_tree_reuse_) {
      entry->needs_recompute = true;
      return;
    }
    if (!entry->source.at_node && entry->source.point.edge == e) {
      entry->needs_recompute = true;
      return;
    }
    if (auto child = entry->state.TreeChildVia(*net_, e)) {
      // Fig. 8: paths through the more expensive edge may no longer be
      // optimal anywhere below it.
      const auto removed = entry->state.PruneSubtree(*child);
      RepairAfterRemoval(id, entry, removed);
    }
    // Covered non-tree edge: settled distances cannot change (their
    // shortest paths avoid e), but objects *on* e shift with the weight.
    entry->rescan_edges.insert(e);
    entry->affected = true;
  });
  CKNN_CHECK(net_->SetWeight(e, update.new_weight).ok());
  ForEachInfluenced(e, [&](QueryId, Entry* entry) {
    if (!entry->needs_recompute) RepairEdgeKeys(entry, e);
  });
}

void ImaEngine::ApplyMove(const MoveRequest& move) {
  auto it = entries_.find(move.id);
  CKNN_CHECK(it != entries_.end());
  Entry& entry = it->second;
  CKNN_CHECK(!entry.source.at_node);  // Anchored queries never move.
  const NetworkPoint target = move.pos;
  CKNN_CHECK(target.edge < net_->NumEdges());
  if (entry.needs_recompute) {
    entry.source = ExpansionSource::AtPoint(target);
    return;
  }
  const NetworkPoint old = entry.source.point;
  if (target == old) return;
  if (!use_tree_reuse_) {
    entry.source = ExpansionSource::AtPoint(target);
    entry.needs_recompute = true;
    return;
  }

  auto reroot = [&](NodeId keep_root, double delta) {
    entry.state.ReRootToSubtree(keep_root, target, delta);
    entry.source = ExpansionSource::AtPoint(target);
    RebuildFrontier(*net_, entry.state, &entry.frontier);
    entry.full_refresh = true;
    entry.affected = true;
    ++stats_.reroots;
  };

  if (target.edge == old.edge) {
    // Movement along the query's own edge: the subtree hanging off the
    // endpoint we moved toward stays valid (the old shortest paths to it
    // pass through the new location).
    const RoadNetwork::Edge& ed = net_->edge(target.edge);
    const NodeId toward = target.t > old.t ? ed.v : ed.u;
    const ExpansionState::SettledInfo* info = entry.state.Info(toward);
    if (info != nullptr && info->via_edge == target.edge &&
        info->parent == kInvalidNode) {
      reroot(toward, -std::abs(target.t - old.t) * ed.weight);
      return;
    }
    entry.source = ExpansionSource::AtPoint(target);
    entry.needs_recompute = true;
    return;
  }

  // Movement onto another edge. Reuse is possible iff it is a tree edge:
  // then the new location lies on the old shortest path to the whole
  // subtree below that edge (Fig. 7).
  auto child = entry.state.TreeChildVia(*net_, target.edge);
  if (!child.has_value()) {
    entry.source = ExpansionSource::AtPoint(target);
    entry.needs_recompute = true;
    return;
  }
  const ExpansionState::SettledInfo* cinfo = entry.state.Info(*child);
  const NodeId parent = cinfo->parent;
  // Root children arrive via the source edge, which differs from
  // target.edge here, so the parent is a real settled node.
  CKNN_CHECK(parent != kInvalidNode);
  const RoadNetwork::Edge& ed = net_->edge(target.edge);
  const double off_from_parent = parent == ed.u
                                     ? target.t * ed.weight
                                     : (1.0 - target.t) * ed.weight;
  const double old_dist_of_target =
      *entry.state.NodeDistance(parent) + off_from_parent;
  reroot(*child, -old_dist_of_target);
}

void ImaEngine::ApplyObjectUpdate(const ObjectUpdate& update) {
  bool routed = false;
  if (update.old_pos.has_value()) {
    ForEachInfluenced(update.old_pos->edge, [&](QueryId, Entry* entry) {
      if (entry->needs_recompute) return;
      auto removed = entry->known.Remove(update.id);
      if (removed.has_value()) {
        routed = true;
        // Only departures from inside the bound can change the result.
        if (*removed <= entry->state.bound()) entry->affected = true;
      }
    });
  }
  // Fig. 10 line 17 mutates the object table here. The table's owner has
  // already applied the whole batch: routing above and below never reads
  // the table, so the apply point is free to move before the batch.
  if (update.new_pos.has_value()) {
    ForEachInfluenced(update.new_pos->edge, [&](QueryId, Entry* entry) {
      if (entry->needs_recompute) return;
      auto d = entry->state.PointDistance(*net_, *update.new_pos);
      if (d.has_value()) {
        entry->known.Set(update.id, *d);
        routed = true;
        if (*d <= entry->state.bound()) entry->affected = true;
      }
    });
  }
  if (routed) {
    ++stats_.updates_routed;
  } else {
    ++stats_.updates_ignored;
  }
}

std::vector<QueryId> ImaEngine::ProcessUpdates(
    const std::vector<ObjectUpdate>& object_updates,
    const std::vector<EdgeUpdate>& edge_updates,
    const std::vector<MoveRequest>& moves) {
  // Fig. 10 ordering: decreasing weights first (lines 4-10), then
  // increasing (11-13), then query movement (14-15; checking against the
  // post-edge-update trees is strictly safer than the paper's line 1 check
  // against the stale tree), then object updates (16-19), then one rebuild
  // pass per affected query (20-26).
  for (const EdgeUpdate& u : edge_updates) {
    CKNN_CHECK(u.edge < net_->NumEdges());
    if (u.new_weight < net_->WeightOf(u.edge)) ApplyEdgeDecrease(u);
  }
  for (const EdgeUpdate& u : edge_updates) {
    if (u.new_weight > net_->WeightOf(u.edge)) ApplyEdgeIncrease(u);
  }
  for (const MoveRequest& m : moves) ApplyMove(m);
  for (const ObjectUpdate& u : object_updates) ApplyObjectUpdate(u);

  std::vector<QueryId> changed;
  // cknn-lint: allow(unordered-iter) id-keyed work; changed is sorted below
  for (auto& [id, entry] : entries_) {
    if (entry.needs_recompute) {
      if (RecomputeEntry(id, &entry)) changed.push_back(id);
    } else if (entry.affected || entry.full_refresh ||
               !entry.rescan_edges.empty()) {
      if (RebuildEntry(id, &entry)) changed.push_back(id);
    }
  }
  // entries_ iterates in hash order; canonicalize the API surface so no
  // caller can pick up a dependence on it.
  std::sort(changed.begin(), changed.end());
  return changed;
}

void ImaEngine::RescanEdge(Entry* entry, EdgeId e) {
  for (const EdgeObject& obj : objects_->ObjectsOn(e)) {
    auto d = entry->state.PointDistance(*net_, NetworkPoint{e, obj.t()});
    if (d.has_value()) {
      entry->known.Set(obj.id, *d);
    } else {
      entry->known.Remove(obj.id);
    }
  }
}

void ImaEngine::RefreshKnownAll(Entry* entry) {
  std::vector<ObjectId> ids;
  ids.reserve(entry->known.size());
  entry->known.ForEachCandidate(
      [&](ObjectId id, double) { ids.push_back(id); });
  for (ObjectId id : ids) {
    auto pos = objects_->Position(id);
    CKNN_CHECK(pos.ok());  // Departed objects were removed in Sold handling.
    auto d = entry->state.PointDistance(*net_, *pos);
    if (d.has_value()) {
      entry->known.Set(id, *d);
    } else {
      entry->known.Remove(id);
    }
  }
}

void ImaEngine::RebuildCoverage(QueryId id, Entry* entry) {
  std::unordered_set<EdgeId> covered;
  covered.reserve(entry->state.NumSettled() * 3 + 1);
  if (!entry->source.at_node) covered.insert(entry->source.point.edge);
  entry->state.ForEachSettled(
      [&](NodeId n, const ExpansionState::SettledInfo& info) {
        (void)info;
        for (const RoadNetwork::Incidence& inc : net_->Incidences(n)) {
          covered.insert(inc.edge);
        }
      });
  // cknn-lint: allow(unordered-iter) keyed set edits, order-free
  for (EdgeId e : entry->covered) {
    if (covered.count(e) == 0) influence_[e].erase(id);
  }
  // cknn-lint: allow(unordered-iter) keyed set edits, order-free
  for (EdgeId e : covered) {
    if (entry->covered.count(e) == 0) influence_[e].insert(id);
  }
  entry->covered = std::move(covered);
}

void ImaEngine::GrowCoverage(QueryId id, Entry* entry,
                             const std::vector<NodeId>& fresh) {
  for (NodeId n : fresh) {
    for (const RoadNetwork::Incidence& inc : net_->Incidences(n)) {
      if (entry->covered.insert(inc.edge).second) {
        influence_[inc.edge].insert(id);
      }
    }
  }
}

bool ImaEngine::ExtractResult(Entry* entry) {
  entry->state.set_bound(entry->known.KthDist(entry->k));
  std::vector<Neighbor> result = entry->known.TopK(entry->k);
  const bool changed = result != entry->result;
  entry->result = std::move(result);
  entry->affected = false;
  return changed;
}

bool ImaEngine::RebuildEntry(QueryId id, Entry* entry) {
  ++stats_.rebuilds;
  if (entry->full_refresh) {
    RefreshKnownAll(entry);
  } else {
    for (EdgeId e : entry->rescan_edges) RescanEdge(entry, e);
  }
  entry->rescan_edges.clear();
  std::vector<NodeId> fresh;
  ExpandToK(*net_, *objects_, entry->k, &entry->state, &entry->frontier,
            &entry->known, &fresh);
  if (entry->full_refresh) {
    ShrinkTree(id, entry);
    RebuildCoverage(id, entry);
    entry->full_refresh = false;
    entry->pending_uncover.clear();
    return ExtractResult(entry);
  }
  GrowCoverage(id, entry, fresh);
  ShrinkTree(id, entry);
  // Deferred coverage shrinking: edges whose region was pruned and not
  // re-settled by the expansion leave the influence lists now.
  // cknn-lint: allow(unordered-iter) keyed erases, order-free
  for (EdgeId e : entry->pending_uncover) {
    if (!entry->state.EdgeTouched(*net_, e)) {
      if (entry->covered.erase(e) > 0) influence_[e].erase(id);
    }
  }
  entry->pending_uncover.clear();
  return ExtractResult(entry);
}

void ImaEngine::ShrinkTree(QueryId id, Entry* entry) {
  // Lazy shrink (the paper's tree shrinking with hysteresis): once the
  // tree radius exceeds the bound by more than the slack, prune the excess
  // so influence lists don't ratchet up under weight wobble. The tree also
  // keeps no node beyond the nearest frontier key (the expansion stopped
  // there, past the bound). A node kept beyond it, left by a move, a
  // weight increase or a lowered subtree, is farther than an unsettled
  // node, and the next timestamp's non-tree decrease rule would miss a
  // shortcut to it through that unsettled node.
  constexpr double kShrinkSlack = 1.3;
  const double bound = entry->known.KthDist(entry->k);
  double keep_radius = bound < kInfDist ? kShrinkSlack * bound : kInfDist;
  if (!entry->frontier.heap.empty()) {
    keep_radius = std::min(keep_radius, entry->frontier.heap.Top().key);
  }
  if (entry->state.max_settled_dist() <= keep_radius) return;
  RepairAfterRemoval(id, entry, entry->state.PruneBeyond(keep_radius));
  for (EdgeId e : entry->rescan_edges) RescanEdge(entry, e);
  entry->rescan_edges.clear();
  entry->state.set_max_settled_dist(keep_radius);
}

bool ImaEngine::RecomputeEntry(QueryId id, Entry* entry) {
  ++stats_.full_recomputes;
  if (entry->source.at_node) {
    entry->state.ResetToNode(entry->source.node);
  } else {
    entry->state.ResetToPoint(entry->source.point);
  }
  entry->frontier.Clear();
  entry->known.Clear();
  entry->rescan_edges.clear();
  entry->pending_uncover.clear();
  entry->full_refresh = false;
  entry->needs_recompute = false;
  ExpandToK(*net_, *objects_, entry->k, &entry->state, &entry->frontier,
            &entry->known);
  RebuildCoverage(id, entry);
  return ExtractResult(entry);
}


Status ImaEngine::CheckInvariants() const {
  auto fail = [](std::string msg) { return Status::Internal(std::move(msg)); };
  // cknn-lint: allow(unordered-iter) validation; any order finds a violation
  for (const auto& [id, entry] : entries_) {
    const std::string tag = "query " + std::to_string(id) + ": ";
    // Expansion tree: parents settled, label arithmetic consistent.
    Status tree_status = Status::OK();
    entry.state.ForEachSettled(
        [&](NodeId n, const ExpansionState::SettledInfo& info) {
          (void)n;
          if (!tree_status.ok() || info.parent == kInvalidNode) return;
          const auto* pinfo = entry.state.Info(info.parent);
          if (pinfo == nullptr) {
            tree_status = fail(tag + "orphaned settled node");
            return;
          }
          const double want = pinfo->dist + net_->WeightOf(info.via_edge);
          if (std::abs(info.dist - want) > 1e-6 * (1.0 + want)) {
            tree_status = fail(tag + "settled dist does not match its tree label");
          }
        });
    if (!tree_status.ok()) return tree_status;
    // Frontier: pending parents settled, keys consistent with labels.
    Status frontier_status = Status::OK();
    entry.frontier.pending.ForEach([&](const Frontier::Label& label) {
      if (!frontier_status.ok()) return;
      if (entry.state.IsSettled(label.node)) {
        frontier_status = fail(tag + "settled node still in frontier");
        return;
      }
      if (label.parent != kInvalidNode &&
          !entry.state.IsSettled(label.parent)) {
        frontier_status =
            fail(tag + "frontier label points at unsettled parent");
      }
    });
    if (!frontier_status.ok()) return frontier_status;
    // Known set: objects exist, lie on influenced edges, distances valid.
    Status known_status = Status::OK();
    entry.known.ForEachCandidate([&](ObjectId obj, double) {
      if (!known_status.ok()) return;
      auto pos = objects_->Position(obj);
      if (!pos.ok()) {
        known_status = fail(tag + "known object missing from table");
        return;
      }
      const EdgeId e = pos->edge;
      if (entry.covered.count(e) == 0 &&
          entry.pending_uncover.count(e) == 0) {
        known_status = fail(tag + "known object on uncovered edge");
        return;
      }
      if (influence_[e].count(id) == 0) {
        known_status = fail(tag + "known object's edge lost the influence entry");
      }
    });
    if (!known_status.ok()) return known_status;
    // Coverage <-> influence agreement.
    // cknn-lint: allow(unordered-iter) validation; any order finds a violation
    for (EdgeId e : entry.covered) {
      if (influence_[e].count(id) == 0) {
        return fail(tag + "covered edge without influence entry");
      }
    }
  }
  for (EdgeId e = 0; e < influence_.size(); ++e) {
    // cknn-lint: allow(unordered-iter) validation; any order finds a violation
    for (QueryId id : influence_[e]) {
      auto it = entries_.find(id);
      if (it == entries_.end()) {
        return fail("influence list holds a removed query");
      }
      if (it->second.covered.count(e) == 0) {
        return fail("influence entry without covered edge");
      }
    }
  }
  return Status::OK();
}

std::size_t ImaEngine::MemoryBytes() const {
  std::size_t bytes = HashMapBytes(entries_) +
                      influence_.capacity() * sizeof(influence_[0]);
  // cknn-lint: allow(unordered-iter) commutative byte sum
  for (const auto& [id, entry] : entries_) {
    (void)id;
    bytes += entry.state.MemoryBytes() + entry.known.MemoryBytes() +
             entry.frontier.MemoryBytes() + VectorBytes(entry.result) +
             HashSetBytes(entry.covered) + HashSetBytes(entry.rescan_edges) +
             HashSetBytes(entry.pending_uncover);
  }
  // cknn-lint: allow(unordered-iter) commutative byte sum
  for (const auto& il : influence_) bytes += HashSetBytes(il);
  return bytes;
}

Status Ima::ProcessTimestamp(const UpdateBatch& batch) {
  // Terminations first (before any maintenance work is spent on them),
  // installations last (after all updates took effect) — Section 4.5.
  std::vector<ImaEngine::MoveRequest> moves;
  for (const QueryUpdate& qu : batch.queries) {
    switch (qu.kind) {
      case QueryUpdate::Kind::kTerminate:
        CKNN_RETURN_NOT_OK(engine_.RemoveQuery(qu.id));
        break;
      case QueryUpdate::Kind::kMove:
        if (!engine_.HasQuery(qu.id)) {
          return Status::NotFound("move for unknown query");
        }
        moves.push_back(ImaEngine::MoveRequest{qu.id, qu.pos});
        break;
      case QueryUpdate::Kind::kInstall:
        break;  // Deferred below.
    }
  }
  engine_.ProcessUpdates(batch.objects, batch.edges, moves);
  for (const QueryUpdate& qu : batch.queries) {
    if (qu.kind == QueryUpdate::Kind::kInstall) {
      CKNN_RETURN_NOT_OK(
          engine_.AddQuery(qu.id, ExpansionSource::AtPoint(qu.pos), qu.k));
    }
  }
  return Status::OK();
}

}  // namespace cknn
