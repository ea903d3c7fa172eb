#ifndef CKNN_CKNN_H_
#define CKNN_CKNN_H_

/// \file Umbrella header for the cknn library: continuous k-nearest-
/// neighbor monitoring in road networks (Mouratidis et al., VLDB 2006).
///
/// Typical entry point: build a RoadNetwork, hand it to MonitoringServer
/// with an Algorithm, and feed UpdateBatch ticks. See README.md.

#include "src/core/gma.h"           // IWYU pragma: export
#include "src/core/ima.h"           // IWYU pragma: export
#include "src/core/knn_search.h"    // IWYU pragma: export
#include "src/core/monitor.h"       // IWYU pragma: export
#include "src/core/object_table.h"  // IWYU pragma: export
#include "src/core/ovh.h"           // IWYU pragma: export
#include "src/core/server.h"        // IWYU pragma: export
#include "src/core/updates.h"       // IWYU pragma: export
#include "src/gen/brinkhoff.h"      // IWYU pragma: export
#include "src/gen/network_gen.h"    // IWYU pragma: export
#include "src/gen/placement.h"      // IWYU pragma: export
#include "src/gen/random_walk.h"    // IWYU pragma: export
#include "src/gen/weight_gen.h"     // IWYU pragma: export
#include "src/gen/workload.h"       // IWYU pragma: export
#include "src/graph/graph_io.h"     // IWYU pragma: export
#include "src/graph/road_network.h" // IWYU pragma: export
#include "src/graph/sequences.h"    // IWYU pragma: export
#include "src/graph/shortest_path.h" // IWYU pragma: export
#include "src/sim/experiment.h"     // IWYU pragma: export
#include "src/sim/simulation.h"     // IWYU pragma: export
#include "src/spatial/pmr_quadtree.h" // IWYU pragma: export

#endif  // CKNN_CKNN_H_
