#ifndef CKNN_GRAPH_TOPOLOGY_H_
#define CKNN_GRAPH_TOPOLOGY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/geom/geometry.h"
#include "src/graph/types.h"

namespace cknn {

class SequenceTable;

/// \brief The immutable half of a road network: node coordinates, edge
/// endpoints/lengths, and the CSR adjacency index — everything that never
/// changes after the network is built.
///
/// A `SharedTopology` is held by `shared_ptr` and referenced by every
/// `RoadNetwork` view of the same graph (the sharded server's per-shard
/// views, the lockstep conformance servers, the Brinkhoff generator's
/// private routing network). Only the *dynamic weights* are per-view (one
/// flat vector in each `RoadNetwork`, docs/network_views.md); the topology
/// exists once per graph regardless of how many shards or servers
/// reference it.
///
/// Mutation protocol: `RoadNetwork::AddNode`/`AddEdge` mutate the topology
/// only while their facade is the sole owner (`use_count() == 1`); once a
/// `SharedView` exists the topology is frozen. The CSR index is built
/// lazily (see BuildAdjacencyIndex for the threading contract), and the
/// GMA sequence decomposition is cached here once per graph
/// (`RoadNetwork::SharedSequences`).
class SharedTopology {
 public:
  /// Immutable per-edge record; the dynamic weight lives in the view's
  /// weight store.
  struct EdgeTopo {
    NodeId u = kInvalidNode;  ///< e.start
    NodeId v = kInvalidNode;  ///< e.end
    double length = 0.0;      ///< static geometric length
  };

  /// One entry of a node's adjacency list.
  struct Incidence {
    EdgeId edge = kInvalidEdge;
    NodeId neighbor = kInvalidNode;
  };

  /// \brief Contiguous view of one node's adjacency list inside the CSR
  /// incidence array. Cheap to copy; valid until the next topology
  /// mutation (AddNode/AddEdge).
  class IncidenceSpan {
   public:
    using value_type = Incidence;
    using const_iterator = const Incidence*;

    IncidenceSpan() = default;
    IncidenceSpan(const Incidence* data, std::size_t size)
        : data_(data), size_(size) {}

    const Incidence* begin() const { return data_; }
    const Incidence* end() const { return data_ + size_; }
    const Incidence* data() const { return data_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const Incidence& operator[](std::size_t i) const { return data_[i]; }

   private:
    const Incidence* data_ = nullptr;
    std::size_t size_ = 0;
  };

  SharedTopology() = default;

  // Shared by pointer, never by copy: views alias one instance.
  SharedTopology(const SharedTopology&) = delete;
  SharedTopology& operator=(const SharedTopology&) = delete;

  std::size_t NumNodes() const { return node_positions_.size(); }
  std::size_t NumEdges() const { return edges_.size(); }

  const Point& NodePosition(NodeId n) const;
  const EdgeTopo& edge(EdgeId e) const;

  /// Degree of node `n` (number of incident edges).
  std::size_t Degree(NodeId n) const;

  /// Adjacency list of node `n` as a view into the CSR incidence array
  /// (per-node entries ordered by ascending edge id, exactly the insertion
  /// order of the historical per-node vectors).
  IncidenceSpan Incidences(NodeId n) const;

  /// Builds the CSR adjacency index if the topology changed since the
  /// last build. Incidences()/Degree() do this lazily, but the lazy path
  /// is not safe for a *first* call racing from several threads — callers
  /// that share a topology across threads warm it up through here while
  /// still single-threaded.
  void BuildAdjacencyIndex() const { EnsureCsr(); }

  /// The endpoint of `e` that is not `n`. Checked error if `n` is not an
  /// endpoint of `e`.
  NodeId OtherEndpoint(EdgeId e, NodeId n) const;

  /// True iff `n` is an endpoint of `e`.
  bool IsEndpoint(EdgeId e, NodeId n) const;

  /// Geometry of an edge as a segment from u to v.
  Segment EdgeSegment(EdgeId e) const;

  /// Bounding rectangle of all node positions (workspace extent).
  Rect BoundingBox() const;

  /// Average edge *length* — the unit for the paper's object/query speeds.
  double AverageEdgeLength() const;

  /// Estimated heap footprint in bytes (node, edge, and CSR arrays).
  /// Counted once per graph, no matter how many views share it.
  std::size_t MemoryBytes() const;

 private:
  friend class RoadNetwork;

  /// Rebuilds the CSR arrays from `edges_` in O(nodes + edges) via a
  /// counting sort. `mutable` so the accessors can build lazily; see
  /// BuildAdjacencyIndex() for the threading contract.
  void EnsureCsr() const;

  std::vector<Point> node_positions_;
  std::vector<EdgeTopo> edges_;
  /// CSR adjacency: node n's incidences are
  /// csr_incidences_[csr_offsets_[n] .. csr_offsets_[n + 1]).
  mutable std::vector<std::uint32_t> csr_offsets_;
  mutable std::vector<Incidence> csr_incidences_;
  mutable bool csr_valid_ = false;

  /// Once-per-graph cache of the GMA sequence decomposition (Section 5's
  /// ST is a pure function of the topology). Built on first
  /// `RoadNetwork::SharedSequences()` call; every sharing view gets the
  /// same table, so the active-node substrate stops scaling with the
  /// shard count.
  mutable std::once_flag sequences_once_;
  mutable std::shared_ptr<const SequenceTable> sequences_;
};

}  // namespace cknn

#endif  // CKNN_GRAPH_TOPOLOGY_H_
