#ifndef CKNN_GEN_NETWORK_GEN_H_
#define CKNN_GEN_NETWORK_GEN_H_

#include <cstdint>

#include "src/graph/road_network.h"

namespace cknn {

/// \brief Parameters of the synthetic road-network generator.
///
/// The generator substitutes the paper's San Francisco / Oldenburg maps
/// (see DESIGN.md): it produces a connected, planar, grid-based network
/// with jittered node coordinates, randomly deleted edges (a random
/// spanning tree is protected so connectivity is guaranteed) and randomly
/// subdivided edges (chains of degree-2 nodes). The result has the degree
/// profile of a real road graph — degrees 1-4 with long intersection-free
/// chains — which is exactly what GMA's sequence decomposition exploits.
struct NetworkGenConfig {
  /// Approximate number of edges of the result (within ~±20%).
  std::size_t target_edges = 10000;
  /// Probability that a non-spanning-tree grid edge is removed.
  double delete_fraction = 0.2;
  /// Probability that a surviving edge is subdivided into a chain.
  double subdivide_fraction = 0.5;
  /// Chains have 2..max_chain_hops sub-edges.
  int max_chain_hops = 4;
  /// Node coordinate jitter as a fraction of the grid cell.
  double jitter = 0.3;
  /// Grid cell side in world units (edge lengths scale with this).
  double cell_size = 100.0;
  std::uint64_t seed = 1;
};

/// Generates a synthetic road network. Always connected; edge weights are
/// initialized to Euclidean lengths.
RoadNetwork GenerateRoadNetwork(const NetworkGenConfig& config);

/// Preset approximating the Oldenburg map used in Figure 19
/// (6105 nodes / 7035 edges).
RoadNetwork GenerateOldenburgLike(std::uint64_t seed);

}  // namespace cknn

#endif  // CKNN_GEN_NETWORK_GEN_H_
