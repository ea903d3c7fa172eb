#include "referee.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "src/graph/shortest_path.h"

namespace perfbench {

Referee::Referee(const cknn::NetworkGenConfig& network)
    : net_(cknn::GenerateRoadNetwork(network)) {}

void Referee::SetObject(cknn::ObjectId id,
                        std::optional<cknn::NetworkPoint> pos) {
  if (id >= objects_.size()) objects_.resize(id + 1);
  objects_[id] = pos;
}

void Referee::SetQuery(cknn::QueryId id,
                       std::optional<cknn::NetworkPoint> pos, int k) {
  if (id >= queries_.size()) queries_.resize(id + 1);
  if (!pos) {
    queries_[id].reset();
    return;
  }
  if (queries_[id] && k <= 0) {
    queries_[id]->pos = *pos;  // A move keeps k.
  } else {
    queries_[id] = Query{*pos, k};
  }
}

bool Referee::SetWeight(cknn::EdgeId edge, double weight) {
  if (edge >= net_.NumEdges()) return false;
  return net_.SetWeight(edge, weight).ok();
}

std::vector<cknn::QueryId> Referee::LiveQueries() const {
  std::vector<cknn::QueryId> ids;
  for (std::size_t i = 0; i < queries_.size(); ++i) {
    if (queries_[i]) ids.push_back(static_cast<cknn::QueryId>(i));
  }
  return ids;
}

std::optional<cknn::NetworkPoint> Referee::QueryPosition(
    cknn::QueryId id) const {
  if (id >= queries_.size() || !queries_[id]) return std::nullopt;
  return queries_[id]->pos;
}

int Referee::QueryK(cknn::QueryId id) const {
  return id < queries_.size() && queries_[id] ? queries_[id]->k : 0;
}

std::vector<double> Referee::KnnDistances(cknn::QueryId id) const {
  const Query& q = *queries_.at(id);
  const cknn::RoadNetwork::Edge qe = net_.edge(q.pos.edge);
  const double off_u = cknn::WeightOffsetFromU(net_, q.pos);
  const double off_v = cknn::WeightOffsetFromV(net_, q.pos);
  const std::unordered_map<cknn::NodeId, double> from_u =
      cknn::DijkstraDistances(net_, qe.u);
  const std::unordered_map<cknn::NodeId, double> from_v =
      cknn::DijkstraDistances(net_, qe.v);
  // Network distance from the query point to every node.
  std::vector<double> node_dist(net_.NumNodes(), cknn::kInfDist);
  for (const auto& [n, d] : from_u) node_dist[n] = off_u + d;
  for (const auto& [n, d] : from_v) {
    node_dist[n] = std::min(node_dist[n], off_v + d);
  }
  std::vector<double> dists;
  dists.reserve(objects_.size());
  for (const std::optional<cknn::NetworkPoint>& pos : objects_) {
    if (!pos) continue;
    const cknn::RoadNetwork::Edge oe = net_.edge(pos->edge);
    double d = std::min(node_dist[oe.u] + cknn::WeightOffsetFromU(net_, *pos),
                        node_dist[oe.v] + cknn::WeightOffsetFromV(net_, *pos));
    if (pos->edge == q.pos.edge) {
      d = std::min(d, cknn::AlongEdgeDistance(net_, q.pos, *pos));
    }
    if (d < cknn::kInfDist) dists.push_back(d);
  }
  const std::size_t k = std::min<std::size_t>(q.k, dists.size());
  std::partial_sort(dists.begin(), dists.begin() + k, dists.end());
  dists.resize(k);
  return dists;
}

bool Referee::Matches(const std::vector<double>& expected,
                      const std::vector<double>& actual, std::string* why) {
  if (expected.size() != actual.size()) {
    *why = "result size " + std::to_string(actual.size()) + ", expected " +
           std::to_string(expected.size());
    return false;
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const double tol = 1e-7 * (1.0 + std::abs(expected[i]));
    if (!(std::abs(expected[i] - actual[i]) <= tol)) {
      *why = "rank " + std::to_string(i) + " distance " +
             std::to_string(actual[i]) + ", expected " +
             std::to_string(expected[i]);
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
