#include "src/graph/road_network.h"

#include <mutex>

#include "src/graph/sequences.h"
#include "src/util/macros.h"

namespace cknn {

SharedTopology& RoadNetwork::MutableTopo() {
  if (topo_ == nullptr) {
    topo_ = std::make_shared<SharedTopology>();
  }
  // Topology mutation is only legal while this view is the sole owner —
  // a SharedView freezes the graph structure for everyone.
  CKNN_CHECK(topo_.use_count() == 1);
  return *topo_;
}

NodeId RoadNetwork::AddNode(const Point& position) {
  SharedTopology& topo = MutableTopo();
  topo.node_positions_.push_back(position);
  topo.csr_valid_ = false;
  return static_cast<NodeId>(topo.node_positions_.size() - 1);
}

Result<EdgeId> RoadNetwork::AddEdge(NodeId u, NodeId v,
                                    double length_override) {
  if (u >= NumNodes() || v >= NumNodes()) {
    return Status::InvalidArgument("edge endpoint does not exist");
  }
  if (u == v) {
    return Status::InvalidArgument("self-loop edges are not supported");
  }
  SharedTopology& topo = MutableTopo();
  double length = length_override > 0.0
                      ? length_override
                      : Distance(topo.node_positions_[u],
                                 topo.node_positions_[v]);
  if (length <= 0.0) {
    return Status::InvalidArgument("edge length must be positive");
  }
  const EdgeId id = static_cast<EdgeId>(topo.edges_.size());
  topo.edges_.push_back(SharedTopology::EdgeTopo{u, v, length});
  weights_.push_back(length);
  topo.csr_valid_ = false;
  return id;
}

const Point& RoadNetwork::NodePosition(NodeId n) const {
  CKNN_CHECK(topo_ != nullptr);
  return topo_->NodePosition(n);
}

RoadNetwork::Edge RoadNetwork::edge(EdgeId e) const {
  CKNN_CHECK(e < NumEdges());
  const SharedTopology::EdgeTopo& t = topo_->edge(e);
  return Edge{t.u, t.v, t.length, weights_[e]};
}

double RoadNetwork::WeightOf(EdgeId e) const {
  CKNN_CHECK(e < NumEdges());
  return weights_[e];
}

double RoadNetwork::LengthOf(EdgeId e) const {
  CKNN_CHECK(e < NumEdges());
  return topo_->edge(e).length;
}

std::size_t RoadNetwork::Degree(NodeId n) const {
  CKNN_CHECK(topo_ != nullptr);
  return topo_->Degree(n);
}

RoadNetwork::IncidenceSpan RoadNetwork::Incidences(NodeId n) const {
  CKNN_CHECK(topo_ != nullptr);
  return topo_->Incidences(n);
}

NodeId RoadNetwork::OtherEndpoint(EdgeId e, NodeId n) const {
  CKNN_CHECK(topo_ != nullptr);
  return topo_->OtherEndpoint(e, n);
}

bool RoadNetwork::IsEndpoint(EdgeId e, NodeId n) const {
  CKNN_CHECK(topo_ != nullptr);
  return topo_->IsEndpoint(e, n);
}

Status RoadNetwork::SetWeight(EdgeId e, double weight) {
  if (e >= NumEdges()) return Status::NotFound("unknown edge");
  if (weight < 0.0) {
    return Status::InvalidArgument("edge weight must be non-negative");
  }
  weights_[e] = weight;
  return Status::OK();
}

Segment RoadNetwork::EdgeSegment(EdgeId e) const {
  CKNN_CHECK(topo_ != nullptr);
  return topo_->EdgeSegment(e);
}

Rect RoadNetwork::BoundingBox() const {
  return topo_ ? topo_->BoundingBox() : Rect{};
}

double RoadNetwork::AverageEdgeLength() const {
  return topo_ ? topo_->AverageEdgeLength() : 0.0;
}

RoadNetwork RoadNetwork::SharedView() const {
  RoadNetwork view;
  view.topo_ = topo_;
  view.weights_ = weights_;  // Independent overlay.
  return view;
}

std::shared_ptr<const SequenceTable> RoadNetwork::SharedSequences() const {
  if (topo_ == nullptr) {
    // Empty network: nothing to cache (and no shared topology to cache
    // it on); an empty table is correct and cheap.
    return std::make_shared<const SequenceTable>();
  }
  std::call_once(topo_->sequences_once_, [&] {
    topo_->sequences_ =
        std::make_shared<const SequenceTable>(SequenceTable::Build(*this));
  });
  return topo_->sequences_;
}

std::size_t RoadNetwork::MemoryBytes() const {
  return SharedMemoryBytes() + OverlayMemoryBytes();
}

std::size_t RoadNetwork::SharedMemoryBytes() const {
  return topo_ ? topo_->MemoryBytes() : 0;
}

}  // namespace cknn
