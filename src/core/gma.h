#ifndef CKNN_CORE_GMA_H_
#define CKNN_CORE_GMA_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/ima.h"
#include "src/core/monitor.h"
#include "src/core/object_table.h"
#include "src/core/top_k.h"
#include "src/core/updates.h"
#include "src/graph/road_network.h"
#include "src/graph/sequences.h"
#include "src/util/slot_table.h"

namespace cknn {

/// \brief GMA — the group monitoring algorithm of Section 5.
///
/// GMA partitions the network into *sequences* (chains between
/// intersections, SequenceTable) and groups the queries by the sequence
/// containing them. Instead of monitoring each moving query, it monitors the
/// static *active nodes* — the intersection endpoints of sequences that
/// currently contain queries — with the IMA engine, each with
/// `n.k = max{q.k : q in n.Q}` neighbors.
///
/// By Lemma 1, the k-NN set of a query inside a sequence is contained in
/// the union of the objects on the sequence and the k-NN sets of its
/// endpoints, so each user query is answered by a cheap bidirectional walk
/// along its sequence that merges the endpoint NN sets on arrival.
///
/// Update filtering for user queries uses per-sequence influence lists:
/// each edge the walk of `q` reaches keeps `q` with the reached interval;
/// object / edge-weight updates outside all intervals are ignored, and NN
/// changes of an active node only re-evaluate the queries whose walks
/// reached that node within their bound. Affected queries are re-evaluated
/// from scratch (Fig. 12 line 17) — the walk is O(reach + k).
///
/// As in the IMA engine the bookkeeping is flat: user queries and active
/// nodes live in dense slots (`SlotTable`), and the influence lists and
/// node memberships are short vectors of query slots.
class Gma : public Monitor {
 public:
  struct Stats {
    std::uint64_t evaluations = 0;
    std::uint64_t affected_by_node_change = 0;
    std::uint64_t affected_by_object = 0;
    std::uint64_t affected_by_edge = 0;
  };

  /// Obtains the sequence table of `net` through the once-per-graph cache
  /// on its shared topology (`RoadNetwork::SharedSequences`) — co-resident
  /// GMA monitors over views of the same graph share one table instead of
  /// each building a copy. Both tables must outlive the monitor. The
  /// network topology must not change afterwards (weights may).
  Gma(RoadNetwork* net, const ObjectTable* objects);

  void ProcessTimestamp(const UpdateBatch& batch) override;
  const std::vector<Neighbor>* ResultOf(QueryId id) const override;
  std::size_t NumQueries() const override { return queries_.size(); }
  std::size_t MemoryBytes() const override;
  /// The shared sequence table, counted once across co-resident monitors
  /// (ShardSet::MemoryBytes) rather than per shard.
  std::size_t SharedMemoryBytes() const override {
    return st_->MemoryBytes();
  }
  std::string_view name() const override { return "GMA"; }

  const SequenceTable& sequences() const { return *st_; }
  /// Verifies the user-query bookkeeping: every influence entry names a
  /// live query that covers the edge, at most once per list, and every
  /// covered edge lists its query. O(everything); for tests and
  /// diagnostics (the active nodes' engine has its own CheckInvariants).
  Status CheckInvariants() const;

  /// Number of currently active (monitored) intersection nodes.
  std::size_t NumActiveNodes() const { return active_.size(); }
  const Stats& stats() const { return stats_; }
  ImaEngine& engine() { return engine_; }

 private:
  /// Reached portion of an edge, as a t-fraction interval (the influencing
  /// interval of Section 5, stored explicitly because GMA walks are 1-D).
  struct Interval {
    double lo = 0.0;
    double hi = 0.0;
  };

  struct UserQuery {
    NetworkPoint pos;
    int k = 1;
    SequenceId seq = kInvalidSequence;
    std::vector<Neighbor> result;
    double bound = kInfDist;
    /// Endpoint nodes whose NN set the walk consumed within the bound.
    std::vector<NodeId> reached_nodes;
    /// Edges holding this query in their influence list, each once.
    std::vector<EdgeId> covered;
    /// Timestamp pass that last queued this query for evaluation.
    std::uint64_t queued_pass = 0;
  };

  using Queries = SlotTable<QueryId, UserQuery>;
  using Slot = Queries::Slot;

  struct ActiveNode {
    std::vector<Slot> queries;  // n.Q, each query once
    int k = 0;                  // n.k
  };

  /// One entry of an edge's influence list.
  struct Influence {
    Slot query;
    Interval reach;
  };

  /// Evaluation scratch: an edge the walk entered, a sequence endpoint it
  /// reached, and an edge's reached interval before deduplication.
  struct Touch {
    EdgeId edge;
    double enter_dist;
    NodeId enter_node;
  };
  struct Reached {
    NodeId node;
    double dist;
  };
  struct EdgeInterval {
    EdgeId edge;
    Interval reach;
  };

  /// True iff `n` can be an active node (an intersection; terminals and
  /// pure-cycle anchors contribute nothing beyond the sequence itself).
  bool IsIntersection(NodeId n) const { return net_->Degree(n) >= 3; }

  /// Registers `q` at the active candidates among its sequence endpoints,
  /// creating/growing monitored nodes as needed.
  void AttachToEndpoints(Slot slot, UserQuery* uq);
  /// Inverse of AttachToEndpoints (shrinks / deactivates nodes).
  void DetachFromEndpoints(Slot slot, UserQuery* uq);

  /// Recomputes n.k for an active node after membership change,
  /// deactivating it when no query is left.
  void SyncNodeK(NodeId n, ActiveNode* an);

  /// From-scratch evaluation of one query: bidirectional sequence walk plus
  /// endpoint NN merge; refreshes result, bound, influence intervals.
  void EvaluateQuery(Slot slot, UserQuery* uq);

  /// Removes q from the influence lists of its covered edges.
  void ClearInfluence(Slot slot, UserQuery* uq);

  /// Queues a query for this pass's evaluation; returns false if it
  /// already was.
  bool Queue(Slot slot);

  RoadNetwork* net_;
  const ObjectTable* objects_;
  /// Shared, read-only: the same table instance backs every co-resident
  /// GMA monitor of this graph (cached on the SharedTopology).
  std::shared_ptr<const SequenceTable> st_;
  ImaEngine engine_;  // Monitors active nodes, keyed by NodeId.
  Queries queries_;
  SlotTable<NodeId, ActiveNode> active_;
  /// Per-edge influence lists of *user queries* with reached intervals:
  /// unordered, each query at most once, erased by swap with the last.
  std::vector<std::vector<Influence>> il_;
  /// Scratch accumulator for EvaluateQuery (cleared per evaluation).
  CandidateSet eval_cand_;
  /// Reused per-evaluation scratch (cleared per use).
  std::vector<Touch> touched_;
  std::vector<Reached> reached_;
  std::vector<EdgeInterval> intervals_;
  /// Slots queued for evaluation in the current ProcessTimestamp, each
  /// once (UserQuery::queued_pass == pass_).
  std::vector<Slot> to_evaluate_;
  std::uint64_t pass_ = 0;
  Stats stats_;
};

}  // namespace cknn

#endif  // CKNN_CORE_GMA_H_
