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
  auto it = queries_.find(id);
  return it == queries_.end() ? nullptr : &it->second.result;
}

void Gma::SyncNodeK(NodeId n, ActiveNode* an) {
  if (an->queries.empty()) {
    CKNN_CHECK(engine_.RemoveQuery(n).ok());
    active_.erase(n);
    return;
  }
  int max_k = 0;
  // cknn-lint: allow(unordered-iter) commutative max over the node's query set
  for (QueryId q : an->queries) {
    max_k = std::max(max_k, queries_.at(q).k);
  }
  if (max_k != an->k) {
    an->k = max_k;
    CKNN_CHECK(engine_.SetK(n, max_k).ok());
  }
}

void Gma::AttachToEndpoints(QueryId id, UserQuery* uq) {
  const SequenceTable::Sequence& seq = st_->sequence(uq->seq);
  const NodeId ends[2] = {seq.EndpointA(), seq.EndpointB()};
  for (int i = 0; i < 2; ++i) {
    const NodeId n = ends[i];
    if (i == 1 && ends[0] == ends[1]) break;  // Anchored loop: one endpoint.
    if (!IsIntersection(n)) continue;
    auto [it, inserted] = active_.try_emplace(n);
    ActiveNode& an = it->second;
    an.queries.insert(id);
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

void Gma::DetachFromEndpoints(QueryId id, UserQuery* uq) {
  const SequenceTable::Sequence& seq = st_->sequence(uq->seq);
  const NodeId ends[2] = {seq.EndpointA(), seq.EndpointB()};
  for (int i = 0; i < 2; ++i) {
    const NodeId n = ends[i];
    if (i == 1 && ends[0] == ends[1]) break;
    if (!IsIntersection(n)) continue;
    auto it = active_.find(n);
    CKNN_CHECK(it != active_.end());
    it->second.queries.erase(id);
    SyncNodeK(n, &it->second);
  }
}

void Gma::ClearInfluence(QueryId id, UserQuery* uq) {
  for (EdgeId e : uq->covered) il_[e].erase(id);
  uq->covered.clear();
}

void Gma::EvaluateQuery(QueryId id, UserQuery* uq) {
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

  struct Touch {
    EdgeId edge;
    double enter_dist;
    NodeId enter_node;
  };
  std::vector<Touch> touched;
  struct Reached {
    NodeId node;
    double dist;
  };
  std::vector<Reached> reached;

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
  ClearInfluence(id, uq);
  std::unordered_map<EdgeId, Interval> intervals;
  {
    // Query's own edge.
    const double radius_t =
        qe.weight > 0.0 ? uq->bound / qe.weight + kIntervalPad : kInfDist;
    Interval iv{std::max(0.0, uq->pos.t - radius_t),
                std::min(1.0, uq->pos.t + radius_t)};
    intervals.emplace(query_edge, iv);
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
    auto [it, inserted] = intervals.emplace(t.edge, iv);
    if (!inserted) {
      // Same edge reached from both directions (cycles): keep the hull —
      // conservative but safe for filtering.
      it->second.lo = std::min(it->second.lo, iv.lo);
      it->second.hi = std::max(it->second.hi, iv.hi);
    }
  }
  uq->covered.reserve(intervals.size());
  // cknn-lint: allow(unordered-iter) keyed il_ writes; covered is used as a set
  for (const auto& [e, iv] : intervals) {
    il_[e][id] = iv;
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
  std::unordered_set<QueryId> to_evaluate;

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
  // cknn-lint: allow(unordered-iter) batch.queries is a vector (name collision)
  for (const QueryUpdate& qu : batch.queries) {
    switch (qu.kind) {
      case QueryUpdate::Kind::kTerminate: {
        auto it = queries_.find(qu.id);
        if (it == queries_.end()) {
          return Status::NotFound("terminate for unknown query");
        }
        ClearInfluence(qu.id, &it->second);
        DetachFromEndpoints(qu.id, &it->second);
        queries_.erase(it);
        break;
      }
      case QueryUpdate::Kind::kMove: {
        auto it = queries_.find(qu.id);
        if (it == queries_.end()) {
          return Status::NotFound("move for unknown query");
        }
        UserQuery& uq = it->second;
        if (qu.pos.edge >= net_->NumEdges()) {
          return Status::InvalidArgument("move onto unknown edge");
        }
        const SequenceId new_seq = st_->SequenceOf(qu.pos.edge);
        if (new_seq != uq.seq) {
          DetachFromEndpoints(qu.id, &uq);
          uq.seq = new_seq;
          uq.pos = qu.pos;
          AttachToEndpoints(qu.id, &uq);
        } else {
          uq.pos = qu.pos;
        }
        to_evaluate.insert(qu.id);
        break;
      }
      case QueryUpdate::Kind::kInstall: {
        if (queries_.count(qu.id) != 0) {
          return Status::AlreadyExists("query id already monitored");
        }
        if (qu.k < 1) return Status::InvalidArgument("k must be >= 1");
        if (qu.pos.edge >= net_->NumEdges()) {
          return Status::InvalidArgument("install on unknown edge");
        }
        UserQuery& uq = queries_[qu.id];
        uq.pos = qu.pos;
        uq.k = qu.k;
        uq.seq = st_->SequenceOf(qu.pos.edge);
        AttachToEndpoints(qu.id, &uq);
        to_evaluate.insert(qu.id);
        break;
      }
    }
  }

  // Fig. 12 lines 6-15: determine the actually affected user queries.
  for (QueryId node_as_query : changed_nodes) {
    const NodeId n = static_cast<NodeId>(node_as_query);
    auto it = active_.find(n);
    if (it == active_.end()) continue;
    // cknn-lint: allow(unordered-iter) set insert + counter, order-free
    for (QueryId q : it->second.queries) {
      const UserQuery& uq = queries_.at(q);
      if (std::find(uq.reached_nodes.begin(), uq.reached_nodes.end(), n) !=
          uq.reached_nodes.end()) {
        if (to_evaluate.insert(q).second) ++stats_.affected_by_node_change;
      }
    }
  }
  auto mark_point = [&](const NetworkPoint& p) {
    // cknn-lint: allow(unordered-iter) set insert + counter, order-free
    for (const auto& [q, iv] : il_[p.edge]) {
      if (p.t >= iv.lo && p.t <= iv.hi) {
        if (to_evaluate.insert(q).second) ++stats_.affected_by_object;
      }
    }
  };
  for (const ObjectUpdate& u : batch.objects) {
    if (u.old_pos.has_value()) mark_point(*u.old_pos);
    if (u.new_pos.has_value()) mark_point(*u.new_pos);
  }
  for (const EdgeUpdate& u : batch.edges) {
    // cknn-lint: allow(unordered-iter) set insert + counter, order-free
    for (const auto& [q, iv] : il_[u.edge]) {
      (void)iv;
      if (to_evaluate.insert(q).second) ++stats_.affected_by_edge;
    }
  }

  // Fig. 12 lines 16-17: recompute each affected or new query.
  // cknn-lint: allow(unordered-iter) per-query recompute into (q)-keyed state
  for (QueryId q : to_evaluate) {
    auto it = queries_.find(q);
    if (it == queries_.end()) continue;  // Installed then terminated, etc.
    EvaluateQuery(q, &it->second);
  }
  return Status::OK();
}

std::size_t Gma::MemoryBytes() const {
  std::size_t bytes = engine_.MemoryBytes() +
                      HashMapBytes(queries_) + HashMapBytes(active_) +
                      il_.capacity() * sizeof(il_[0]) +
                      eval_cand_.MemoryBytes();
  // cknn-lint: allow(unordered-iter) commutative byte sum
  for (const auto& [id, uq] : queries_) {
    (void)id;
    bytes += VectorBytes(uq.result) + VectorBytes(uq.reached_nodes) +
             VectorBytes(uq.covered);
  }
  // cknn-lint: allow(unordered-iter) commutative byte sum
  for (const auto& [n, an] : active_) {
    (void)n;
    bytes += HashSetBytes(an.queries);
  }
  // cknn-lint: allow(unordered-iter) commutative byte sum
  for (const auto& m : il_) bytes += HashMapBytes(m);
  return bytes;
}

}  // namespace cknn
