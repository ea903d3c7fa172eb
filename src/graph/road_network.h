#ifndef CKNN_GRAPH_ROAD_NETWORK_H_
#define CKNN_GRAPH_ROAD_NETWORK_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/geom/geometry.h"
#include "src/graph/topology.h"
#include "src/graph/types.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace cknn {

class SequenceTable;

/// \brief In-memory road network: nodes with coordinates and bidirectional
/// weighted edges (Section 3 of the paper).
///
/// Each edge carries two scalars:
///  * `length` — immutable Euclidean geometry, used for movement and as the
///    initial weight (the paper initializes weights to edge lengths);
///  * `weight` — the dynamic travel cost that fluctuates with traffic and
///    defines the network distance metric.
///
/// Internally the network is a *view* over two layers
/// (docs/network_views.md):
///  * an immutable `SharedTopology` (geometry + CSR adjacency), held by
///    `shared_ptr` and referenced — never copied — by every view of the
///    same graph;
///  * one flat vector of the dynamic weights, indexed by edge id and
///    private to the view.
///
/// `SharedView()` creates another view of the same topology with an
/// independent copy of the weights — 8 bytes/edge instead of a full
/// clone — which is how the sharded server, the lockstep conformance
/// harness, and the Brinkhoff generator get their per-consumer weight
/// state. Topology mutation (AddNode/AddEdge) is only legal while no
/// other view shares the topology.
///
/// The *edge table* information of the paper (per-edge object lists and
/// influence lists) lives next to the algorithms (`ObjectTable`, the IMA
/// engine) so that the graph itself stays a reusable substrate.
class RoadNetwork {
 public:
  /// Composed per-edge value: immutable topology fields plus the view's
  /// current dynamic weight. Returned by value from `edge()`; a snapshot,
  /// not a reference into storage.
  struct Edge {
    NodeId u = kInvalidNode;  ///< e.start
    NodeId v = kInvalidNode;  ///< e.end
    double length = 0.0;      ///< static geometric length
    double weight = 0.0;      ///< dynamic travel cost (>= 0)
  };

  using Incidence = SharedTopology::Incidence;
  using IncidenceSpan = SharedTopology::IncidenceSpan;

  RoadNetwork() = default;

  RoadNetwork(const RoadNetwork&) = delete;
  RoadNetwork& operator=(const RoadNetwork&) = delete;
  RoadNetwork(RoadNetwork&&) = default;
  RoadNetwork& operator=(RoadNetwork&&) = default;

  /// Adds a node at the given coordinates; returns its id. Requires
  /// exclusive topology ownership (no live SharedView).
  NodeId AddNode(const Point& position);

  /// Adds a bidirectional edge. The weight is initialized to the Euclidean
  /// length of the edge unless `length_override` is positive, in which case
  /// both length and weight start at that value. Self-loops and duplicate
  /// endpoints are rejected. Same mutation preconditions as AddNode.
  Result<EdgeId> AddEdge(NodeId u, NodeId v, double length_override = -1.0);

  std::size_t NumNodes() const { return topo_ ? topo_->NumNodes() : 0; }
  std::size_t NumEdges() const { return topo_ ? topo_->NumEdges() : 0; }

  const Point& NodePosition(NodeId n) const;

  /// Snapshot of edge `e` (topology + current weight), by value.
  Edge edge(EdgeId e) const;

  /// Current dynamic weight of edge `e` — the expansion hot-path read.
  double WeightOf(EdgeId e) const;

  /// Static geometric length of edge `e`.
  double LengthOf(EdgeId e) const;

  /// Degree of node `n` (number of incident edges).
  std::size_t Degree(NodeId n) const;

  /// Adjacency list of node `n` as a view into the CSR incidence array
  /// (per-node entries ordered by ascending edge id, exactly the insertion
  /// order of the historical per-node vectors).
  IncidenceSpan Incidences(NodeId n) const;

  /// Builds the CSR adjacency index (per-node offset array + one
  /// contiguous incidence array) if the topology changed since the last
  /// build. Incidences()/Degree() do this lazily, but the lazy path is not
  /// safe for a *first* call racing from several threads — callers that
  /// share a network across threads (the sharded server, SharedView for
  /// per-shard views, the engine constructors) warm it up through here
  /// while still single-threaded. Weight updates do not invalidate the
  /// index; only AddNode/AddEdge do.
  void BuildAdjacencyIndex() {
    if (topo_) topo_->BuildAdjacencyIndex();
  }

  /// The endpoint of `e` that is not `n`. Checked error if `n` is not an
  /// endpoint of `e`.
  NodeId OtherEndpoint(EdgeId e, NodeId n) const;

  /// True iff `n` is an endpoint of `e`.
  bool IsEndpoint(EdgeId e, NodeId n) const;

  /// Updates the dynamic weight of an edge in this view only. Returns
  /// InvalidArgument for negative weights, NotFound for an unknown edge.
  Status SetWeight(EdgeId e, double weight);

  /// Geometry of an edge as a segment from u to v.
  Segment EdgeSegment(EdgeId e) const;

  /// Bounding rectangle of all node positions (workspace extent).
  Rect BoundingBox() const;

  /// Average edge *length* — the unit for the paper's object/query speeds.
  double AverageEdgeLength() const;

  /// \name Shared-topology views
  /// @{

  /// A new view of the same graph: shares the immutable topology by
  /// pointer, copies the dynamic weights — the per-shard "weight
  /// overlay". The shared topology stays alive as long as any view does.
  RoadNetwork SharedView() const;

  /// The shared immutable topology (null only for a default-constructed
  /// empty network).
  const SharedTopology* topology() const { return topo_.get(); }

  /// True iff `other` is a view of the same shared topology.
  bool SharesTopologyWith(const RoadNetwork& other) const {
    return topo_ != nullptr && topo_ == other.topo_;
  }

  /// GMA's sequence decomposition (Section 5's ST), built once per graph
  /// and cached on the shared topology — every view of the same graph
  /// returns the same table, so co-resident GMA shards stop duplicating
  /// it. Thread-safe; requires a non-empty network.
  std::shared_ptr<const SequenceTable> SharedSequences() const;

  /// @}

  /// Estimated heap footprint in bytes: the shared topology plus this
  /// view's weights. The full cost of a graph with one view; for extra
  /// views count only OverlayMemoryBytes().
  std::size_t MemoryBytes() const;

  /// Bytes of the shared, counted-once topology.
  std::size_t SharedMemoryBytes() const;

  /// Bytes private to this view (the weight overlay) — the true
  /// incremental cost of each additional SharedView.
  std::size_t OverlayMemoryBytes() const {
    return weights_.capacity() * sizeof(double);
  }

 private:
  /// The topology, created lazily on first mutation so that empty and
  /// moved-from networks stay cheap and valid.
  SharedTopology& MutableTopo();

  std::shared_ptr<SharedTopology> topo_;
  /// Dynamic weight of each edge, indexed by edge id.
  std::vector<double> weights_;
};

}  // namespace cknn

#endif  // CKNN_GRAPH_ROAD_NETWORK_H_
