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

void ImaEngine::AddQuery(QueryId id, const ExpansionSource& source, int k) {
  CKNN_CHECK(k >= 1);
  CKNN_CHECK(source.at_node ? source.node < net_->NumNodes()
                            : source.point.edge < net_->NumEdges());
  const auto [slot, inserted] = entries_.Insert(id);
  CKNN_CHECK(inserted);
  Entry& entry = entries_[slot];
  entry.source = source;
  entry.k = k;
  RecomputeEntry(slot, &entry);
}

void ImaEngine::RemoveQuery(QueryId id) {
  const Slot slot = entries_.SlotOf(id);
  CKNN_CHECK(slot != Entries::kNoSlot);
  entries_[slot].covered.ForEach(
      [&](const CoveredEdge& c) { Uninfluence(c.edge, slot); });
  entries_.Erase(slot);
}

bool ImaEngine::SetK(QueryId id, int k) {
  CKNN_CHECK(k >= 1);
  const Slot slot = entries_.SlotOf(id);
  CKNN_CHECK(slot != Entries::kNoSlot);
  Entry& entry = entries_[slot];
  if (entry.k == k) return false;
  entry.k = k;
  // Growing k continues the expansion from the live frontier; shrinking
  // only moves the bound.
  return RebuildEntry(slot, &entry);
}

const std::vector<Neighbor>* ImaEngine::ResultOf(QueryId id) const {
  const Entry* entry = entries_.Find(id);
  return entry == nullptr ? nullptr : &entry->result;
}

double ImaEngine::BoundOf(QueryId id) const {
  const Entry* entry = entries_.Find(id);
  CKNN_CHECK(entry != nullptr);
  return entry->state.bound();
}

int ImaEngine::KOf(QueryId id) const {
  const Entry* entry = entries_.Find(id);
  CKNN_CHECK(entry != nullptr);
  return entry->k;
}

const ExpansionState* ImaEngine::StateOf(QueryId id) const {
  const Entry* entry = entries_.Find(id);
  return entry == nullptr ? nullptr : &entry->state;
}

std::vector<QueryId> ImaEngine::InfluenceOf(EdgeId e) const {
  std::vector<QueryId> ids;
  ids.reserve(influence_[e].size());
  for (Slot slot : influence_[e]) ids.push_back(entries_.IdAt(slot));
  std::sort(ids.begin(), ids.end());
  return ids;
}

void ImaEngine::Uninfluence(EdgeId e, Slot slot) {
  std::vector<Slot>& list = influence_[e];
  const auto it = std::find(list.begin(), list.end(), slot);
  CKNN_DCHECK(it != list.end());
  *it = list.back();
  list.pop_back();
}

template <typename Fn>
void ImaEngine::ForEachInfluenced(EdgeId e, Fn&& fn) {
  if (use_influence_filter_) {
    // Walked in place: every handler leaves coverage edits to the rebuild
    // pass (pending_uncover), so the list cannot change under the walk.
    const std::vector<Slot>& list = influence_[e];
    const std::size_t n = list.size();
    for (std::size_t i = 0; i < n; ++i) {
      fn(&entries_[list[i]]);
      CKNN_DCHECK(list.size() == n);
    }
  } else {
    entries_.ForEachMutable([&](Slot, Entry& entry) {
      if (entry.state.EdgeTouched(*net_, e)) fn(&entry);
    });
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

void ImaEngine::RepairAfterRemoval(Entry* entry,
                                   const std::vector<NodeId>& removed) {
  if (removed.empty()) return;
  std::vector<NodeId>& gone = node_scratch_;
  gone.assign(removed.begin(), removed.end());
  std::sort(gone.begin(), gone.end());
  const auto is_gone = [&gone](NodeId n) {
    return std::binary_search(gone.begin(), gone.end(), n);
  };
  // Tentative labels that pointed into the removed region are stale
  // (possibly stale-low); drop and re-derive them.
  std::vector<NodeId> to_rederive(removed.begin(), removed.end());
  entry->frontier.pending.ForEach([&](const Frontier::Label& label) {
    if (label.parent != kInvalidNode && is_gone(label.parent)) {
      to_rederive.push_back(label.node);
    }
  });
  for (NodeId n : to_rederive) {
    if (!is_gone(n)) entry->frontier.Erase(n);
  }
  for (NodeId n : to_rederive) RederiveFrontierNode(entry, n);
  // Every incident edge's objects need re-derivation (their stored
  // distances may have gone through removed nodes), and the edges may have
  // left the covered region — but influence-list removal is deferred so
  // that this timestamp's object updates still reach the query.
  for (NodeId r : removed) {
    for (const RoadNetwork::Incidence& inc : net_->Incidences(r)) {
      entry->rescan_edges.push_back(inc.edge);
      entry->pending_uncover.push_back(inc.edge);
    }
  }
}

void ImaEngine::RepairAfterAdjust(Entry* entry,
                                  const std::vector<NodeId>& adjusted) {
  for (NodeId a : adjusted) {
    const double d = *entry->state.NodeDistance(a);
    for (const RoadNetwork::Incidence& inc : net_->Incidences(a)) {
      entry->rescan_edges.push_back(inc.edge);
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
  ForEachInfluenced(e, [&](Entry* entry) {
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
      RepairAfterRemoval(entry, removed);
      // The nodes pruned beside the subtree may be nearer than its deep
      // end. The non-tree rule below bounds a path through an unsettled
      // endpoint by the settled one, which is sound only when no
      // unsettled node is nearer than a settled node; so a later decrease
      // in this timestamp needs that shape back.
      RestorePrefix(entry);
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
        RepairAfterRemoval(entry, removed);
      }
    }
    entry->rescan_edges.push_back(e);
    entry->affected = true;
  });
  CKNN_CHECK(net_->SetWeight(e, new_w).ok());
  ForEachInfluenced(e, [&](Entry* entry) {
    if (!entry->needs_recompute) RepairEdgeKeys(entry, e);
  });
}

void ImaEngine::RestorePrefix(Entry* entry) {
  if (entry->frontier.heap.empty()) return;
  // Every frontier key is a path length through a settled node, and every
  // path to an unsettled node leaves the settled set through a frontier
  // node, so the nearest key is the nearest unsettled distance.
  const double nearest = entry->frontier.heap.Top().key;
  RepairAfterRemoval(entry, entry->state.PruneBeyond(nearest));
}

void ImaEngine::ApplyEdgeIncrease(const EdgeUpdate& update) {
  const EdgeId e = update.edge;
  ForEachInfluenced(e, [&](Entry* entry) {
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
      RepairAfterRemoval(entry, removed);
    }
    // Covered non-tree edge: settled distances cannot change (their
    // shortest paths avoid e), but objects *on* e shift with the weight.
    entry->rescan_edges.push_back(e);
    entry->affected = true;
  });
  CKNN_CHECK(net_->SetWeight(e, update.new_weight).ok());
  ForEachInfluenced(e, [&](Entry* entry) {
    if (!entry->needs_recompute) RepairEdgeKeys(entry, e);
  });
}

void ImaEngine::ApplyMove(const MoveRequest& move) {
  Entry* found = entries_.Find(move.id);
  CKNN_CHECK(found != nullptr);
  Entry& entry = *found;
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
    ForEachInfluenced(update.old_pos->edge, [&](Entry* entry) {
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
    ForEachInfluenced(update.new_pos->edge, [&](Entry* entry) {
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
  entries_.ForEachMutable([&](Slot slot, Entry& entry) {
    if (entry.needs_recompute) {
      if (RecomputeEntry(slot, &entry)) changed.push_back(entries_.IdAt(slot));
    } else if (entry.affected || entry.full_refresh ||
               !entry.rescan_edges.empty()) {
      if (RebuildEntry(slot, &entry)) changed.push_back(entries_.IdAt(slot));
    }
  });
  // Slot order follows the install history, not the ids; canonicalize the
  // API surface so no caller can pick up a dependence on it.
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

void ImaEngine::RescanPending(Entry* entry) {
  std::vector<EdgeId>& edges = entry->rescan_edges;
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  for (EdgeId e : edges) RescanEdge(entry, e);
  edges.clear();
}

void ImaEngine::RefreshKnownAll(Entry* entry) {
  std::vector<ObjectId>& ids = object_scratch_;
  ids.clear();
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

void ImaEngine::RebuildCoverage(Slot slot, Entry* entry) {
  std::vector<EdgeId>& edges = edge_scratch_;
  edges.clear();
  if (!entry->source.at_node) edges.push_back(entry->source.point.edge);
  entry->state.ForEachSettled(
      [&](NodeId n, const ExpansionState::SettledInfo& info) {
        (void)info;
        for (const RoadNetwork::Incidence& inc : net_->Incidences(n)) {
          edges.push_back(inc.edge);
        }
      });
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  // EraseIf tests an erased edge exactly once, so each dropped edge
  // leaves its influence list once.
  entry->covered.EraseIf([&](const CoveredEdge& c) {
    if (std::binary_search(edges.begin(), edges.end(), c.edge)) return false;
    Uninfluence(c.edge, slot);
    return true;
  });
  for (EdgeId e : edges) {
    if (entry->covered.Insert(CoveredEdge{e}).second) {
      influence_[e].push_back(slot);
    }
  }
}

void ImaEngine::GrowCoverage(Slot slot, Entry* entry,
                             const std::vector<NodeId>& fresh) {
  for (NodeId n : fresh) {
    for (const RoadNetwork::Incidence& inc : net_->Incidences(n)) {
      if (entry->covered.Insert(CoveredEdge{inc.edge}).second) {
        influence_[inc.edge].push_back(slot);
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

bool ImaEngine::RebuildEntry(Slot slot, Entry* entry) {
  ++stats_.rebuilds;
  if (entry->full_refresh) {
    RefreshKnownAll(entry);
    entry->rescan_edges.clear();
  } else {
    RescanPending(entry);
  }
  std::vector<NodeId> fresh;
  ExpandToK(*net_, *objects_, entry->k, &entry->state, &entry->frontier,
            &entry->known, &fresh);
  if (entry->full_refresh) {
    ShrinkTree(entry);
    RebuildCoverage(slot, entry);
    entry->full_refresh = false;
    entry->pending_uncover.clear();
    return ExtractResult(entry);
  }
  GrowCoverage(slot, entry, fresh);
  ShrinkTree(entry);
  // Deferred coverage shrinking: edges whose region was pruned and not
  // re-settled by the expansion leave the influence lists now (a repeated
  // edge is no longer covered the second time).
  for (EdgeId e : entry->pending_uncover) {
    if (entry->state.EdgeTouched(*net_, e)) continue;
    if (CoveredEdge* c = entry->covered.Find(e)) {
      entry->covered.Erase(c);
      Uninfluence(e, slot);
    }
  }
  entry->pending_uncover.clear();
  return ExtractResult(entry);
}

void ImaEngine::ShrinkTree(Entry* entry) {
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
  RepairAfterRemoval(entry, entry->state.PruneBeyond(keep_radius));
  RescanPending(entry);
  entry->state.set_max_settled_dist(keep_radius);
}

bool ImaEngine::RecomputeEntry(Slot slot, Entry* entry) {
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
  RebuildCoverage(slot, entry);
  return ExtractResult(entry);
}

Status ImaEngine::CheckInvariants() const {
  auto fail = [](std::string msg) { return Status::Internal(std::move(msg)); };
  const auto influences = [this](EdgeId e, Slot slot) {
    const std::vector<Slot>& list = influence_[e];
    return std::find(list.begin(), list.end(), slot) != list.end();
  };
  Status status = Status::OK();
  entries_.ForEach([&](Slot slot, const Entry& entry) {
    if (!status.ok()) return;
    const std::string tag = "query " + std::to_string(entries_.IdAt(slot)) +
                            ": ";
    // Expansion tree: parents settled, label arithmetic consistent.
    entry.state.ForEachSettled(
        [&](NodeId n, const ExpansionState::SettledInfo& info) {
          (void)n;
          if (!status.ok() || info.parent == kInvalidNode) return;
          const auto* pinfo = entry.state.Info(info.parent);
          if (pinfo == nullptr) {
            status = fail(tag + "orphaned settled node");
            return;
          }
          const double want = pinfo->dist + net_->WeightOf(info.via_edge);
          if (std::abs(info.dist - want) > 1e-6 * (1.0 + want)) {
            status = fail(tag + "settled dist does not match its tree label");
          }
        });
    // Frontier: pending parents settled, keys consistent with labels.
    entry.frontier.pending.ForEach([&](const Frontier::Label& label) {
      if (!status.ok()) return;
      if (entry.state.IsSettled(label.node)) {
        status = fail(tag + "settled node still in frontier");
        return;
      }
      if (label.parent != kInvalidNode &&
          !entry.state.IsSettled(label.parent)) {
        status = fail(tag + "frontier label points at unsettled parent");
      }
    });
    // Known set: objects exist, lie on influenced edges, distances valid.
    entry.known.ForEachCandidate([&](ObjectId obj, double) {
      if (!status.ok()) return;
      auto pos = objects_->Position(obj);
      if (!pos.ok()) {
        status = fail(tag + "known object missing from table");
        return;
      }
      const EdgeId e = pos->edge;
      if (entry.covered.Find(e) == nullptr &&
          std::find(entry.pending_uncover.begin(),
                    entry.pending_uncover.end(),
                    e) == entry.pending_uncover.end()) {
        status = fail(tag + "known object on uncovered edge");
        return;
      }
      if (!influences(e, slot)) {
        status = fail(tag + "known object's edge lost the influence entry");
      }
    });
    // Coverage <-> influence agreement.
    entry.covered.ForEach([&](const CoveredEdge& c) {
      if (status.ok() && !influences(c.edge, slot)) {
        status = fail(tag + "covered edge without influence entry");
      }
    });
  });
  if (!status.ok()) return status;
  std::vector<Slot> sorted;
  for (EdgeId e = 0; e < influence_.size(); ++e) {
    sorted.assign(influence_[e].begin(), influence_[e].end());
    std::sort(sorted.begin(), sorted.end());
    // A repeated slot would route every update on the edge twice.
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      return fail("influence list names a query twice");
    }
    for (Slot slot : sorted) {
      if (slot >= entries_.NumSlots() || !entries_.Live(slot)) {
        return fail("influence list holds a removed query");
      }
      if (entries_[slot].covered.Find(e) == nullptr) {
        return fail("influence entry without covered edge");
      }
    }
  }
  return Status::OK();
}

std::size_t ImaEngine::MemoryBytes() const {
  std::size_t bytes = entries_.MemoryBytes() +
                      influence_.capacity() * sizeof(influence_[0]) +
                      VectorBytes(edge_scratch_) + VectorBytes(node_scratch_) +
                      VectorBytes(object_scratch_);
  entries_.ForEach([&](Slot, const Entry& entry) {
    bytes += entry.state.MemoryBytes() + entry.known.MemoryBytes() +
             entry.frontier.MemoryBytes() + VectorBytes(entry.result) +
             entry.covered.MemoryBytes() + VectorBytes(entry.rescan_edges) +
             VectorBytes(entry.pending_uncover);
  });
  for (const std::vector<Slot>& list : influence_) bytes += VectorBytes(list);
  return bytes;
}

void Ima::ProcessTimestamp(const UpdateBatch& batch) {
  // Terminations first (before any maintenance work is spent on them),
  // installations last (after all updates took effect) — Section 4.5.
  std::vector<ImaEngine::MoveRequest> moves;
  for (const QueryUpdate& qu : batch.queries) {
    switch (qu.kind) {
      case QueryUpdate::Kind::kTerminate:
        engine_.RemoveQuery(qu.id);
        break;
      case QueryUpdate::Kind::kMove:
        moves.push_back(ImaEngine::MoveRequest{qu.id, qu.pos});
        break;
      case QueryUpdate::Kind::kInstall:
        break;  // Deferred below.
    }
  }
  engine_.ProcessUpdates(batch.objects, batch.edges, moves);
  for (const QueryUpdate& qu : batch.queries) {
    if (qu.kind == QueryUpdate::Kind::kInstall) {
      engine_.AddQuery(qu.id, ExpansionSource::AtPoint(qu.pos), qu.k);
    }
  }
}

}  // namespace cknn
