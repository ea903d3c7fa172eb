#include "src/sim/conformance.h"

#include <cmath>
#include <memory>
#include <set>
#include <sstream>

#include "src/gen/network_gen.h"
#include "src/trace/trace_source.h"
#include "src/util/macros.h"

namespace cknn {

namespace {

/// Tracks which queries are registered after a tick, mirroring the server's
/// aggregation semantics (install adds, terminate removes, move keeps).
void UpdateLiveQueries(const UpdateBatch& aggregated,
                       std::set<QueryId>* live) {
  for (const QueryUpdate& u : aggregated.queries) {
    switch (u.kind) {
      case QueryUpdate::Kind::kInstall:
        live->insert(u.id);
        break;
      case QueryUpdate::Kind::kTerminate:
        live->erase(u.id);
        break;
      case QueryUpdate::Kind::kMove:
        break;
    }
  }
}

/// Distance-multiset comparison: sizes must match and the i-th distances
/// must agree within the relative tolerance. Ids are allowed to differ (the
/// algorithms may break exact distance ties differently), which is exactly
/// the tie tolerance the equivalence argument of the paper permits.
bool SameResults(const std::vector<Neighbor>& base,
                 const std::vector<Neighbor>& other, double tol,
                 std::string* detail) {
  if (base.size() != other.size()) {
    std::ostringstream os;
    os << "result size " << base.size() << " vs " << other.size();
    *detail = os.str();
    return false;
  }
  for (std::size_t rank = 0; rank < base.size(); ++rank) {
    const double da = base[rank].distance;
    const double db = other[rank].distance;
    if (std::abs(da - db) > tol * (1.0 + std::abs(da))) {
      std::ostringstream os;
      os.precision(17);
      os << "rank " << rank << ": object " << base[rank].id << " at distance "
         << da << " vs object " << other[rank].id << " at distance " << db;
      *detail = os.str();
      return false;
    }
  }
  return true;
}

}  // namespace

std::string ConformanceReport::ToString() const {
  std::ostringstream os;
  if (ok) {
    os << "conformance OK: " << timestamps << " ticks, " << queries_compared
       << " query-result comparisons, all algorithms agree";
    return os.str();
  }
  os << "conformance DIVERGENCE at ts " << divergence->timestamp << " query "
     << divergence->query << ": " << AlgorithmName(divergence->other)
     << " disagrees with " << AlgorithmName(divergence->baseline) << " ("
     << divergence->detail << ") after " << queries_compared
     << " clean comparisons";
  return os.str();
}

Result<ConformanceReport> RunLockstep(
    const std::vector<MonitoringServer*>& servers, WorkloadSource* source,
    int steps, double tolerance) {
  if (servers.size() < 2) {
    return Status::InvalidArgument(
        "lockstep conformance needs at least two servers");
  }
  CKNN_CHECK(source != nullptr);
  ConformanceReport report;
  std::set<QueryId> live;
  for (int tick = 0; tick <= steps; ++tick) {
    const UpdateBatch batch = tick == 0 ? source->Initial() : source->Step();
    for (MonitoringServer* server : servers) {
      const Status st = server->Tick(batch);
      if (!st.ok()) {
        return Status::FailedPrecondition(
            std::string(AlgorithmName(server->algorithm())) +
            " rejected tick " + std::to_string(tick) + ": " + st.message());
      }
    }
    UpdateLiveQueries(MonitoringServer::AggregateBatch(batch), &live);
    ++report.timestamps;
    for (const QueryId q : live) {
      const std::vector<Neighbor>* base = servers[0]->ResultOf(q);
      for (std::size_t i = 1; i < servers.size(); ++i) {
        const std::vector<Neighbor>* other = servers[i]->ResultOf(q);
        std::string detail;
        bool same = true;
        if ((base == nullptr) != (other == nullptr)) {
          detail = base == nullptr ? "query registered only in comparand"
                                   : "query missing from comparand";
          same = false;
        } else if (base != nullptr) {
          same = SameResults(*base, *other, tolerance, &detail);
        }
        if (!same) {
          report.ok = false;
          report.divergence = ConformanceDivergence{
              static_cast<std::uint64_t>(tick), q, servers[0]->algorithm(),
              servers[i]->algorithm(), detail};
          return report;
        }
        ++report.queries_compared;
      }
    }
  }
  return report;
}

std::vector<std::unique_ptr<MonitoringServer>> BuildLockstepServers(
    const RoadNetwork& network, const std::vector<Algorithm>& algorithms,
    int shards, int pipeline_depth) {
  std::vector<std::unique_ptr<MonitoringServer>> servers;
  servers.reserve(algorithms.size());
  for (const Algorithm algo : algorithms) {
    // Shared-topology views: every lockstep server references one
    // immutable topology and keeps only a private weight overlay.
    servers.push_back(std::make_unique<MonitoringServer>(
        network.SharedView(), algo, shards, pipeline_depth));
  }
  return servers;
}

Result<ConformanceReport> CheckTraceConformance(
    const Trace& trace, const ConformanceOptions& options) {
  if (options.algorithms.size() < 2) {
    return Status::InvalidArgument(
        "trace conformance needs at least two algorithms");
  }
  const std::vector<std::unique_ptr<MonitoringServer>> servers =
      BuildLockstepServers(trace.network, options.algorithms, options.shards,
                           options.pipeline_depth);
  std::vector<MonitoringServer*> ptrs;
  ptrs.reserve(servers.size());
  for (const auto& server : servers) ptrs.push_back(server.get());
  TraceWorkloadSource source(&trace);
  return RunLockstep(ptrs, &source, source.NumSteps(), options.tolerance);
}

}  // namespace cknn
