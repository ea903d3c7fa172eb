#include "src/core/gma.h"

#include <algorithm>

#include "src/util/macros.h"
#include "src/util/mem.h"

namespace cknn {

Gma::Gma(RoadNetwork* net, const ObjectTable* objects)
    : net_(net),
      objects_(objects),
      st_(net->SharedSequences()),
      engine_(net, objects),
      il_(net->NumEdges()) {}

const std::vector<Neighbor>* Gma::ResultOf(QueryId id) const {
  const UserQuery* uq = queries_.Find(id);
  return uq == nullptr ? nullptr : &uq->result;
}

void Gma::SyncNodeK(NodeId n, ActiveNode* an) {
  if (an->queries.empty()) {
    CKNN_CHECK(engine_.RemoveQuery(n).ok());
    active_.Erase(active_.SlotOf(n));
    return;
  }
  int max_k = 0;
  for (Slot q : an->queries) max_k = std::max(max_k, queries_[q].k);
  if (max_k != an->k) {
    an->k = max_k;
    CKNN_CHECK(engine_.SetK(n, max_k).ok());
  }
}

void Gma::AttachToEndpoints(Slot slot, UserQuery* uq) {
  const SequenceTable::Sequence& seq = st_->sequence(uq->seq);
  const NodeId ends[2] = {seq.EndpointA(), seq.EndpointB()};
  for (int i = 0; i < 2; ++i) {
    const NodeId n = ends[i];
    if (i == 1 && ends[0] == ends[1]) break;  // Anchored loop: one endpoint.
    if (!IsIntersection(n)) continue;
    const auto [node_slot, inserted] = active_.Insert(n);
    ActiveNode& an = active_[node_slot];
    CKNN_DCHECK(std::find(an.queries.begin(), an.queries.end(), slot) ==
                an.queries.end());
    an.queries.push_back(slot);
    if (inserted) {
      an.k = uq->k;
      CKNN_CHECK(
          engine_.AddQuery(n, ExpansionSource::AtNodeSource(n), uq->k).ok());
    } else if (uq->k > an.k) {
      an.k = uq->k;
      CKNN_CHECK(engine_.SetK(n, an.k).ok());
    }
  }
}

void Gma::DetachFromEndpoints(Slot slot, UserQuery* uq) {
  const SequenceTable::Sequence& seq = st_->sequence(uq->seq);
  const NodeId ends[2] = {seq.EndpointA(), seq.EndpointB()};
  for (int i = 0; i < 2; ++i) {
    const NodeId n = ends[i];
    if (i == 1 && ends[0] == ends[1]) break;
    if (!IsIntersection(n)) continue;
    ActiveNode* an = active_.Find(n);
    CKNN_CHECK(an != nullptr);
    const auto it = std::find(an->queries.begin(), an->queries.end(), slot);
    CKNN_CHECK(it != an->queries.end());
    *it = an->queries.back();
    an->queries.pop_back();
    SyncNodeK(n, an);
  }
}

void Gma::ClearInfluence(Slot slot, UserQuery* uq) {
  for (EdgeId e : uq->covered) {
    std::vector<Influence>& list = il_[e];
    const auto it =
        std::find_if(list.begin(), list.end(),
                     [slot](const Influence& in) { return in.query == slot; });
    CKNN_DCHECK(it != list.end());
    *it = list.back();
    list.pop_back();
  }
  uq->covered.clear();
}

bool Gma::Queue(Slot slot) {
  UserQuery& uq = queries_[slot];
  if (uq.queued_pass == pass_) return false;
  uq.queued_pass = pass_;
  to_evaluate_.push_back(slot);
  return true;
}

void Gma::EvaluateQuery(Slot slot, UserQuery* uq) {
  ++stats_.evaluations;
  // Member scratch: cleared per evaluation, capacity reused across the
  // many evaluations a timestamp triggers.
  eval_cand_.Clear();
  CandidateSet& cand = eval_cand_;
  const SequenceTable::Sequence& seq = st_->sequence(uq->seq);
  const EdgeId query_edge = uq->pos.edge;
  const std::uint32_t j = st_->PositionOf(query_edge);
  const RoadNetwork::Edge& qe = net_->edge(query_edge);

  // Objects sharing the query's edge: along-edge distance (the walks below
  // also reach them "around", Offer keeps the minimum).
  for (const EdgeObject& obj : objects_->ObjectsOn(query_edge)) {
    cand.Offer(obj.id, std::abs(obj.t() - uq->pos.t) * qe.weight);
  }

  std::vector<Touch>& touched = touched_;
  std::vector<Reached>& reached = reached_;
  touched.clear();
  reached.clear();

  // Offset from the query to the sequence node with index `ni` along the
  // query's own edge. ForwardOriented: edge.u == seq.nodes[j].
  const bool fwd = st_->ForwardOriented(query_edge);
  const double off_to_prev =
      (fwd ? uq->pos.t : 1.0 - uq->pos.t) * qe.weight;  // -> seq.nodes[j]
  const double off_to_next = qe.weight - off_to_prev;   // -> seq.nodes[j+1]

  const int num_seq_edges = static_cast<int>(seq.edges.size());
  auto walk = [&](bool toward_b) {
    double d = toward_b ? off_to_next : off_to_prev;
    int node_index = static_cast<int>(j) + (toward_b ? 1 : 0);
    int edge_index = static_cast<int>(j) + (toward_b ? 1 : -1);
    const int step = toward_b ? 1 : -1;
    // Each direction traverses at most the other num_seq_edges - 1 edges
    // (relevant for cycles, where the walk wraps past the anchor).
    for (int consumed = 0; consumed < num_seq_edges; ++consumed) {
      if (d > cand.KthDist(uq->k)) return;  // Beyond any possible neighbor.
      const bool at_anchor =
          toward_b ? node_index == static_cast<int>(seq.nodes.size()) - 1
                   : node_index == 0;
      if (at_anchor) {
        reached.push_back(Reached{seq.nodes[node_index], d});
        // A true endpoint (or an anchored loop's intersection) delegates
        // everything beyond to the monitored node; a pure degree-2 cycle
        // has nothing to delegate to, so the walk wraps around.
        if (!seq.is_cycle || IsIntersection(seq.nodes[node_index])) return;
        node_index = toward_b ? 0 : static_cast<int>(seq.nodes.size()) - 1;
        edge_index = toward_b ? 0 : num_seq_edges - 1;
      }
      const NodeId n = seq.nodes[node_index];
      const EdgeId e = seq.edges[edge_index];
      if (e == query_edge) return;  // Wrapped all the way around.
      const RoadNetwork::Edge& ed = net_->edge(e);
      for (const EdgeObject& obj : objects_->ObjectsOn(e)) {
        const double off =
            ed.u == n ? obj.t() * ed.weight : (1.0 - obj.t()) * ed.weight;
        cand.Offer(obj.id, d + off);
      }
      touched.push_back(Touch{e, d, n});
      d += ed.weight;
      node_index += step;
      edge_index += step;
    }
  };
  walk(/*toward_b=*/false);
  walk(/*toward_b=*/true);

  // Lemma 1: merge the monitored NN sets of the reached intersection
  // endpoints.
  for (const Reached& r : reached) {
    if (!IsIntersection(r.node)) continue;
    const std::vector<Neighbor>* node_result = engine_.ResultOf(r.node);
    CKNN_CHECK(node_result != nullptr);  // Attached before evaluation.
    for (const Neighbor& nb : *node_result) {
      cand.Offer(nb.id, r.dist + nb.distance);
    }
  }

  uq->result = cand.TopK(uq->k);
  uq->bound = cand.KthDist(uq->k);

  // Influence bookkeeping against the final bound. The k-th neighbor lies
  // *exactly* on the interval boundary (it defines the bound), so the
  // intervals are padded against floating-point rounding — a 1-ulp miss
  // here would silently drop the update that evicts the k-th NN.
  constexpr double kIntervalPad = 1e-9;
  ClearInfluence(slot, uq);
  std::vector<EdgeInterval>& intervals = intervals_;
  intervals.clear();
  {
    // Query's own edge.
    const double radius_t =
        qe.weight > 0.0 ? uq->bound / qe.weight + kIntervalPad : kInfDist;
    Interval iv{std::max(0.0, uq->pos.t - radius_t),
                std::min(1.0, uq->pos.t + radius_t)};
    intervals.push_back(EdgeInterval{query_edge, iv});
  }
  for (const Touch& t : touched) {
    const double reach = uq->bound - t.enter_dist;
    // At reach == 0 the entry point itself is still in range: an object
    // there lies at the bound, so it may be the k-th neighbor.
    if (reach < 0.0) continue;
    const RoadNetwork::Edge& ed = net_->edge(t.edge);
    const double frac =
        ed.weight > 0.0
            ? std::min(1.0, reach / ed.weight + kIntervalPad)
            : 1.0;
    const Interval iv = ed.u == t.enter_node ? Interval{0.0, frac}
                                             : Interval{1.0 - frac, 1.0};
    intervals.push_back(EdgeInterval{t.edge, iv});
  }
  // One interval per edge. An edge reached from both directions (cycles)
  // keeps the hull — conservative but safe for filtering.
  std::sort(intervals.begin(), intervals.end(),
            [](const EdgeInterval& a, const EdgeInterval& b) {
              return a.edge < b.edge;
            });
  for (std::size_t i = 0; i < intervals.size();) {
    const EdgeId e = intervals[i].edge;
    Interval hull = intervals[i].reach;
    for (++i; i < intervals.size() && intervals[i].edge == e; ++i) {
      hull.lo = std::min(hull.lo, intervals[i].reach.lo);
      hull.hi = std::max(hull.hi, intervals[i].reach.hi);
    }
    il_[e].push_back(Influence{slot, hull});
    uq->covered.push_back(e);
  }
  uq->reached_nodes.clear();
  for (const Reached& r : reached) {
    if (IsIntersection(r.node) && r.dist <= uq->bound) {
      uq->reached_nodes.push_back(r.node);
    }
  }
}

Status Gma::ProcessTimestamp(const UpdateBatch& batch) {
  ++pass_;
  to_evaluate_.clear();

  // Fig. 12 line 5: maintain the active-node NN sets with the IMA engine
  // (this also applies the edge updates to this monitor's network view).
  const std::vector<QueryId> changed_nodes =
      engine_.ProcessUpdates(batch.objects, batch.edges, {});

  // Structural query maintenance (Fig. 12 lines 1-4; a movement is a
  // deletion plus an insertion). Running it after the engine pass means
  // newly activated nodes compute against up-to-date tables. Terminations
  // too: detaching can lower an active node's k, which re-expands the node
  // against the object table. Before the engine pass, that table already
  // holds this timestamp's moves (the server applies them first), so the
  // node would absorb a change that the engine pass then never reports to
  // the node's other queries.
  for (const QueryUpdate& qu : batch.queries) {
    switch (qu.kind) {
      case QueryUpdate::Kind::kTerminate: {
        const Slot slot = queries_.SlotOf(qu.id);
        if (slot == Queries::kNoSlot) {
          return Status::NotFound("terminate for unknown query");
        }
        ClearInfluence(slot, &queries_[slot]);
        DetachFromEndpoints(slot, &queries_[slot]);
        queries_.Erase(slot);
        break;
      }
      case QueryUpdate::Kind::kMove: {
        const Slot slot = queries_.SlotOf(qu.id);
        if (slot == Queries::kNoSlot) {
          return Status::NotFound("move for unknown query");
        }
        UserQuery& uq = queries_[slot];
        if (qu.pos.edge >= net_->NumEdges()) {
          return Status::InvalidArgument("move onto unknown edge");
        }
        const SequenceId new_seq = st_->SequenceOf(qu.pos.edge);
        if (new_seq != uq.seq) {
          DetachFromEndpoints(slot, &uq);
          uq.seq = new_seq;
          uq.pos = qu.pos;
          AttachToEndpoints(slot, &uq);
        } else {
          uq.pos = qu.pos;
        }
        Queue(slot);
        break;
      }
      case QueryUpdate::Kind::kInstall: {
        if (queries_.SlotOf(qu.id) != Queries::kNoSlot) {
          return Status::AlreadyExists("query id already monitored");
        }
        if (qu.k < 1) return Status::InvalidArgument("k must be >= 1");
        if (qu.pos.edge >= net_->NumEdges()) {
          return Status::InvalidArgument("install on unknown edge");
        }
        const Slot slot = queries_.Insert(qu.id).first;
        UserQuery& uq = queries_[slot];
        uq.pos = qu.pos;
        uq.k = qu.k;
        uq.seq = st_->SequenceOf(qu.pos.edge);
        AttachToEndpoints(slot, &uq);
        Queue(slot);
        break;
      }
    }
  }

  // Fig. 12 lines 6-15: determine the actually affected user queries.
  for (QueryId node_as_query : changed_nodes) {
    const NodeId n = static_cast<NodeId>(node_as_query);
    const ActiveNode* an = active_.Find(n);
    if (an == nullptr) continue;
    for (Slot q : an->queries) {
      const std::vector<NodeId>& reached = queries_[q].reached_nodes;
      if (std::find(reached.begin(), reached.end(), n) != reached.end()) {
        if (Queue(q)) ++stats_.affected_by_node_change;
      }
    }
  }
  auto mark_point = [&](const NetworkPoint& p) {
    for (const Influence& in : il_[p.edge]) {
      if (p.t >= in.reach.lo && p.t <= in.reach.hi) {
        if (Queue(in.query)) ++stats_.affected_by_object;
      }
    }
  };
  for (const ObjectUpdate& u : batch.objects) {
    if (u.old_pos.has_value()) mark_point(*u.old_pos);
    if (u.new_pos.has_value()) mark_point(*u.new_pos);
  }
  for (const EdgeUpdate& u : batch.edges) {
    for (const Influence& in : il_[u.edge]) {
      if (Queue(in.query)) ++stats_.affected_by_edge;
    }
  }

  // Fig. 12 lines 16-17: recompute each affected or new query.
  for (Slot q : to_evaluate_) {
    if (!queries_.Live(q)) continue;  // Queued, then terminated.
    EvaluateQuery(q, &queries_[q]);
  }
  return Status::OK();
}

Status Gma::CheckInvariants() const {
  std::vector<Slot> listed;
  for (EdgeId e = 0; e < il_.size(); ++e) {
    listed.clear();
    for (const Influence& in : il_[e]) listed.push_back(in.query);
    std::sort(listed.begin(), listed.end());
    // A repeated query would be queued from a stale interval.
    if (std::adjacent_find(listed.begin(), listed.end()) != listed.end()) {
      return Status::Internal("GMA influence list names a query twice");
    }
    for (Slot q : listed) {
      if (q >= queries_.NumSlots() || !queries_.Live(q)) {
        return Status::Internal("GMA influence list holds a removed query");
      }
      const std::vector<EdgeId>& covered = queries_[q].covered;
      if (std::find(covered.begin(), covered.end(), e) == covered.end()) {
        return Status::Internal("GMA influence entry without covered edge");
      }
    }
  }
  Status status = Status::OK();
  queries_.ForEach([&](Slot q, const UserQuery& uq) {
    for (EdgeId e : uq.covered) {
      if (!status.ok()) return;
      const std::vector<Influence>& list = il_[e];
      if (std::none_of(list.begin(), list.end(),
                       [q](const Influence& in) { return in.query == q; })) {
        status = Status::Internal("GMA covered edge without influence entry");
      }
    }
  });
  return status;
}

std::size_t Gma::MemoryBytes() const {
  std::size_t bytes = engine_.MemoryBytes() + queries_.MemoryBytes() +
                      active_.MemoryBytes() +
                      il_.capacity() * sizeof(il_[0]) +
                      eval_cand_.MemoryBytes() + VectorBytes(touched_) +
                      VectorBytes(reached_) + VectorBytes(intervals_) +
                      VectorBytes(to_evaluate_);
  queries_.ForEach([&](Slot, const UserQuery& uq) {
    bytes += VectorBytes(uq.result) + VectorBytes(uq.reached_nodes) +
             VectorBytes(uq.covered);
  });
  active_.ForEach([&](Slot, const ActiveNode& an) {
    bytes += VectorBytes(an.queries);
  });
  for (const std::vector<Influence>& list : il_) bytes += VectorBytes(list);
  return bytes;
}

}  // namespace cknn
