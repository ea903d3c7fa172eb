#ifndef CKNN_PERFBENCH_REFEREE_H_
#define CKNN_PERFBENCH_REFEREE_H_

// The benchmark's independent referee. It keeps its own copy of the road
// network (regenerated from the same generator config, never shared with
// the server) and its own table of object and query positions, advanced
// from the updates the benchmark generated. A query's reference k-NN
// distances come from plain Dijkstra (src/graph/shortest_path) from the
// two endpoints of the query's edge, combined with along-edge offsets.
// Nothing from src/core is used, so an engine bug cannot hide in shared
// code.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/gen/network_gen.h"
#include "src/graph/network_point.h"
#include "src/graph/road_network.h"
#include "src/graph/types.h"

namespace perfbench {

class Referee {
 public:
  explicit Referee(const cknn::NetworkGenConfig& network);

  Referee(const Referee&) = delete;
  Referee& operator=(const Referee&) = delete;

  /// Places (or removes, with nullopt) an object.
  void SetObject(cknn::ObjectId id, std::optional<cknn::NetworkPoint> pos);
  /// Installs or moves (k > 0 on install) or terminates (nullopt) a query.
  void SetQuery(cknn::QueryId id, std::optional<cknn::NetworkPoint> pos,
                int k);
  /// Applies a weight change; false (and no change) for an invalid one.
  bool SetWeight(cknn::EdgeId edge, double weight);

  /// Ids of the live queries, ascending.
  std::vector<cknn::QueryId> LiveQueries() const;
  std::optional<cknn::NetworkPoint> QueryPosition(cknn::QueryId id) const;
  int QueryK(cknn::QueryId id) const;

  /// Reference k-NN distances of a live query, ascending.
  std::vector<double> KnnDistances(cknn::QueryId id) const;

  /// Per-rank comparison within the conformance tolerance
  /// (|a - b| <= 1e-7 * (1 + |a|)); ids may differ on ties, so only
  /// distances are compared. On mismatch `why` says where.
  static bool Matches(const std::vector<double>& expected,
                      const std::vector<double>& actual, std::string* why);

  std::size_t NumEdges() const { return net_.NumEdges(); }

 private:
  struct Query {
    cknn::NetworkPoint pos;
    int k = 1;
  };

  cknn::RoadNetwork net_;
  std::vector<std::optional<cknn::NetworkPoint>> objects_;
  std::vector<std::optional<Query>> queries_;
};

}  // namespace perfbench

#endif  // CKNN_PERFBENCH_REFEREE_H_
