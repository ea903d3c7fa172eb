#include "src/core/expansion.h"

#include <algorithm>
#include <utility>

#include "src/util/macros.h"

namespace cknn {

void ExpansionState::ResetToPoint(const NetworkPoint& p) {
  Clear();
  source_ = ExpansionSource::AtPoint(p);
}

void ExpansionState::ResetToNode(NodeId n) {
  Clear();
  source_ = ExpansionSource::AtNodeSource(n);
}

void ExpansionState::SetSourcePoint(const NetworkPoint& p) {
  CKNN_DCHECK(!source_.at_node);
  source_.point = p;
}

std::optional<double> ExpansionState::NodeDistance(NodeId n) const {
  const Slot* s = settled_.Find(n);
  if (s == nullptr) return std::nullopt;
  return s->info.dist;
}

const ExpansionState::SettledInfo* ExpansionState::Info(NodeId n) const {
  const Slot* s = settled_.Find(n);
  return s == nullptr ? nullptr : &s->info;
}

void ExpansionState::Settle(NodeId n, double dist, NodeId parent,
                            EdgeId via_edge) {
  CKNN_DCHECK(n != kInvalidNode);
  Slot slot;
  slot.info = SettledInfo{dist, parent, via_edge};
  slot.node = n;
  // Insert first: an insert may move every slot, so the parent is looked
  // up only afterwards (a lookup moves nothing).
  const auto [s, inserted] = settled_.Insert(slot);
  CKNN_CHECK(inserted);
  if (parent != kInvalidNode) {
    Slot* ps = settled_.Find(parent);
    CKNN_DCHECK(ps != nullptr);
    s->next_sibling = ps->first_child;
    ps->first_child = n;
  }
  max_settled_dist_ = std::max(max_settled_dist_, dist);
}

void ExpansionState::DetachFromParent(NodeId n, NodeId parent) {
  if (parent == kInvalidNode) return;
  Slot* ps = settled_.Find(parent);
  if (ps == nullptr) return;
  for (NodeId* link = &ps->first_child; *link != kInvalidNode;) {
    Slot* cs = settled_.Find(*link);
    CKNN_DCHECK(cs != nullptr);
    if (*link == n) {
      *link = cs->next_sibling;
      return;
    }
    link = &cs->next_sibling;
  }
}

void ExpansionState::MarkNodes(const std::vector<NodeId>& nodes) {
  if (++mark_epoch_ == 0) {
    // Stamp counter wrapped (once per ~4G set operations): sweep the stale
    // stamps so an ancient mark cannot alias the restarted epoch.
    settled_.ForEachMutable([](Slot& s) { s.mark = 0; });
    mark_epoch_ = 1;
  }
  for (NodeId n : nodes) {
    Slot* s = settled_.Find(n);
    CKNN_DCHECK(s != nullptr);
    s->mark = mark_epoch_;
  }
}

void ExpansionState::EraseNodes(const std::vector<NodeId>& nodes) {
  // Unlink before erasing (the sibling chains must still be walkable), and
  // only from parents that survive — a removed node whose parent is also
  // removed needs no detaching, its parent's slot dies wholesale.
  MarkNodes(nodes);
  for (NodeId n : nodes) {
    const NodeId parent = settled_.Find(n)->info.parent;
    if (parent == kInvalidNode) continue;
    const Slot* ps = settled_.Find(parent);
    if (ps != nullptr && ps->mark != mark_epoch_) DetachFromParent(n, parent);
  }
  // Each erase may move other slots, so every node is looked up afresh.
  for (NodeId n : nodes) {
    Slot* s = settled_.Find(n);
    CKNN_DCHECK(s != nullptr);
    settled_.Erase(s);
  }
}

std::optional<NodeId> ExpansionState::TreeChildVia(const RoadNetwork& net,
                                                   EdgeId e) const {
  const RoadNetwork::Edge& ed = net.edge(e);
  const SettledInfo* iu = Info(ed.u);
  if (iu != nullptr && iu->via_edge == e) return ed.u;
  const SettledInfo* iv = Info(ed.v);
  if (iv != nullptr && iv->via_edge == e) return ed.v;
  return std::nullopt;
}

std::vector<NodeId> ExpansionState::SubtreeOf(NodeId root) const {
  CKNN_DCHECK(IsSettled(root));
  std::vector<NodeId> out;
  std::vector<NodeId> stack{root};
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    out.push_back(n);
    const Slot* s = settled_.Find(n);
    CKNN_DCHECK(s != nullptr);
    for (NodeId c = s->first_child; c != kInvalidNode;
         c = settled_.Find(c)->next_sibling) {
      stack.push_back(c);
    }
  }
  return out;
}

std::vector<NodeId> ExpansionState::PruneSubtree(NodeId root) {
  std::vector<NodeId> removed = SubtreeOf(root);
  EraseNodes(removed);
  return removed;
}

std::vector<NodeId> ExpansionState::AdjustSubtree(NodeId root, double delta) {
  std::vector<NodeId> nodes = SubtreeOf(root);
  for (NodeId n : nodes) {
    Slot* s = settled_.Find(n);
    s->info.dist += delta;
    // Keep max_settled_dist_ an upper bound also when delta is positive
    // (for negative deltas the old maximum already dominates).
    max_settled_dist_ = std::max(max_settled_dist_, s->info.dist);
  }
  return nodes;
}

std::vector<NodeId> ExpansionState::PruneBeyond(double threshold) {
  std::vector<NodeId> removed;
  settled_.ForEach([&](const Slot& s) {
    if (s.info.dist > threshold) removed.push_back(s.node);
  });
  EraseNodes(removed);
  return removed;
}

std::vector<NodeId> ExpansionState::PruneOthersBeyond(NodeId keep_root,
                                                      double threshold) {
  MarkNodes(SubtreeOf(keep_root));
  std::vector<NodeId> removed;
  settled_.ForEach([&](const Slot& s) {
    if (s.info.dist > threshold && s.mark != mark_epoch_) {
      removed.push_back(s.node);
    }
  });
  EraseNodes(removed);
  return removed;
}

void ExpansionState::ReRootToSubtree(NodeId subtree_root,
                                     const NetworkPoint& new_source,
                                     double delta) {
  const std::vector<NodeId> keep = SubtreeOf(subtree_root);
  std::vector<std::pair<NodeId, SettledInfo>> next;
  next.reserve(keep.size());
  for (NodeId n : keep) {
    SettledInfo info = settled_.Find(n)->info;
    info.dist += delta;
    next.emplace_back(n, info);
  }
  // The kept subtree root hangs directly off the new source; SubtreeOf
  // returns it first.
  CKNN_CHECK(!next.empty() && next.front().first == subtree_root);
  next.front().second.parent = kInvalidNode;
  next.front().second.via_edge = new_source.edge;
  settled_.Clear();
  max_settled_dist_ = 0.0;
  // Pre-order: every parent is re-settled before its children, so the
  // intrusive child links rebuild through the normal Settle path.
  for (const auto& [n, info] : next) {
    Settle(n, info.dist, info.parent, info.via_edge);
  }
  source_ = ExpansionSource::AtPoint(new_source);
}

std::optional<double> ExpansionState::PointDistance(
    const RoadNetwork& net, const NetworkPoint& p) const {
  const RoadNetwork::Edge& ed = net.edge(p.edge);
  double best = kInfDist;
  if (const SettledInfo* iu = Info(ed.u); iu != nullptr) {
    best = std::min(best, iu->dist + p.t * ed.weight);
  }
  if (const SettledInfo* iv = Info(ed.v); iv != nullptr) {
    best = std::min(best, iv->dist + (1.0 - p.t) * ed.weight);
  }
  if (!source_.at_node && source_.point.edge == p.edge) {
    best = std::min(best, AlongEdgeDistance(net, source_.point, p));
  }
  if (best == kInfDist) return std::nullopt;
  return best;
}

bool ExpansionState::EdgeTouched(const RoadNetwork& net, EdgeId e) const {
  if (!source_.at_node && source_.point.edge == e) return true;
  const RoadNetwork::Edge& ed = net.edge(e);
  return IsSettled(ed.u) || IsSettled(ed.v);
}

bool ExpansionState::InInfluencingInterval(const RoadNetwork& net, EdgeId e,
                                           double offset_from_u) const {
  const RoadNetwork::Edge& ed = net.edge(e);
  const double t =
      ed.weight > 0.0 ? std::clamp(offset_from_u / ed.weight, 0.0, 1.0) : 0.0;
  auto d = PointDistance(net, NetworkPoint{e, t});
  return d.has_value() && *d <= bound_;
}

void ExpansionState::Clear() {
  settled_.Clear();
  bound_ = kInfDist;
  max_settled_dist_ = 0.0;
}

std::size_t ExpansionState::MemoryBytes() const {
  return settled_.MemoryBytes() + sizeof(*this);
}

}  // namespace cknn
