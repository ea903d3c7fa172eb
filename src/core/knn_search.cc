#include "src/core/knn_search.h"

#include "src/util/macros.h"

namespace cknn {

namespace {

/// Weight-offset of an object at fraction `t` of edge `e`, measured from
/// endpoint `from`.
double OffsetFrom(const RoadNetwork::Edge& e, double t, NodeId from) {
  return from == e.u ? t * e.weight : (1.0 - t) * e.weight;
}

}  // namespace

void RebuildFrontier(const RoadNetwork& net, const ExpansionState& state,
                     Frontier* frontier) {
  frontier->Clear();
  state.ForEachSettled([&](NodeId n, const ExpansionState::SettledInfo& info) {
    for (const RoadNetwork::Incidence& inc : net.Incidences(n)) {
      if (!state.IsSettled(inc.neighbor)) {
        frontier->Relax(state, inc.neighbor,
                        info.dist + net.WeightOf(inc.edge), n, inc.edge);
      }
    }
  });
}

void ExpandToK(const RoadNetwork& net, const ObjectTable& objects, int k,
               ExpansionState* state, Frontier* frontier,
               CandidateSet* candidates, std::vector<NodeId>* newly_settled,
               ExpandStats* stats) {
  CKNN_CHECK(k >= 1);
  const ExpansionSource& src = state->source();

  auto offer_objects_on_edge = [&](EdgeId e, NodeId from, double base) {
    const RoadNetwork::Edge& ed = net.edge(e);
    for (const EdgeObject& obj : objects.ObjectsOn(e)) {
      candidates->Offer(obj.id, base + OffsetFrom(ed, obj.t(), from));
      if (stats != nullptr) ++stats->objects_offered;
    }
  };

  if (state->NumSettled() == 0) {
    // Fresh (or fully pruned) expansion: seed from the source
    // (Fig. 2 lines 1-6).
    frontier->Clear();
    if (src.at_node) {
      frontier->Relax(*state, src.node, 0.0, kInvalidNode, kInvalidEdge);
    }
  }
  if (!src.at_node) {
    // The direct along-edge reach of the source must always be seeded: a
    // shortcut prune can remove a source-edge endpoint whose only shorter
    // way back is straight along the query's own edge. Also (re)offer the
    // source edge objects — O(objects on one edge).
    const RoadNetwork::Edge& ed = net.edge(src.point.edge);
    frontier->Relax(*state, ed.u, WeightOffsetFromU(net, src.point),
                    kInvalidNode, src.point.edge);
    frontier->Relax(*state, ed.v, WeightOffsetFromV(net, src.point),
                    kInvalidNode, src.point.edge);
    for (const EdgeObject& obj : objects.ObjectsOn(src.point.edge)) {
      const NetworkPoint pos{src.point.edge, obj.t()};
      candidates->Offer(obj.id, AlongEdgeDistance(net, src.point, pos));
      if (stats != nullptr) ++stats->objects_offered;
    }
  }

  // Main loop (Fig. 2 lines 7-23). Settling while dist <= KthDist keeps the
  // tie-zone at the k-th distance inside the verified region.
  while (!frontier->heap.empty()) {
    const double kth = candidates->KthDist(k);
    if (frontier->heap.Top().key > kth) break;
    const auto [id, dist] = frontier->heap.Pop();
    const NodeId n = static_cast<NodeId>(id);
    Frontier::Label* slot = frontier->pending.Find(n);
    CKNN_DCHECK(slot != nullptr);
    const Frontier::Label label = *slot;
    frontier->pending.Erase(slot);
    state->Settle(n, dist, label.parent, label.via);
    if (newly_settled != nullptr) newly_settled->push_back(n);
    if (stats != nullptr) ++stats->nodes_settled;
    for (const RoadNetwork::Incidence& inc : net.Incidences(n)) {
      offer_objects_on_edge(inc.edge, n, dist);
      if (frontier->Relax(*state, inc.neighbor,
                          dist + net.WeightOf(inc.edge), n, inc.edge)) {
        if (stats != nullptr) ++stats->heap_pushes;
      }
    }
  }
}

std::vector<Neighbor> SnapshotKnn(const RoadNetwork& net,
                                  const ObjectTable& objects,
                                  const NetworkPoint& source, int k,
                                  ExpandStats* stats) {
  KnnScratch scratch;
  return SnapshotKnn(net, objects, source, k, &scratch, stats);
}

std::vector<Neighbor> SnapshotKnn(const RoadNetwork& net,
                                  const ObjectTable& objects,
                                  const NetworkPoint& source, int k,
                                  KnnScratch* scratch, ExpandStats* stats) {
  scratch->state.ResetToPoint(source);
  scratch->frontier.Clear();
  scratch->candidates.Clear();
  ExpandToK(net, objects, k, &scratch->state, &scratch->frontier,
            &scratch->candidates, nullptr, stats);
  return scratch->candidates.TopK(k);
}

}  // namespace cknn
