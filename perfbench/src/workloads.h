#ifndef CKNN_PERFBENCH_WORKLOADS_H_
#define CKNN_PERFBENCH_WORKLOADS_H_

#include "common.h"
#include "tracer.h"

namespace perfbench {

/// Closed loop, one Tick per pre-generated Table-2 batch; IMA, 4 shards.
void RunPaperIma(const Options& options, Tracer* tracer, Report* report);

/// Closed loop of depth-2 SubmitBatch calls over pre-generated
/// churn-heavy batches; GMA, 3 shards.
void RunFleetGma(const Options& options, Tracer* tracer, Report* report);

/// Open loop of protocol frames over one socketpair connection into
/// ServeConnection -> ServingFrontEnd -> IMA, 2 shards, depth 2.
void RunServeMixed(const Options& options, Tracer* tracer, Report* report);

}  // namespace perfbench

#endif  // CKNN_PERFBENCH_WORKLOADS_H_
