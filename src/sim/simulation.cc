#include "src/sim/simulation.h"

#include "src/util/macros.h"
#include "src/util/stopwatch.h"

namespace cknn {

RunMetrics RunSimulation(MonitoringServer* server, WorkloadSource* workload,
                         const SimulationOptions& options) {
  CKNN_CHECK(server != nullptr);
  CKNN_CHECK(workload != nullptr);
  {
    const Status st = server->Tick(workload->Initial());
    CKNN_CHECK(st.ok());
  }
  RunMetrics metrics;
  metrics.steps.reserve(static_cast<std::size_t>(options.timestamps));
  // Wall time covers the submit call only (generation is untimed; on a
  // pipelined server it overlaps the in-flight tick's maintenance). CPU
  // windows differ by depth: at depth 1 they match the wall window, but
  // at depth >= 2 the in-flight tick burns CPU *during* the generation
  // window too, so the step windows are made contiguous (generation +
  // submit) — the run total then covers all server CPU, at the price of
  // also counting the (driver-side) generation CPU.
  const bool pipelined = server->pipeline_depth() > 1;
  CpuStopwatch cpu;
  for (int ts = 0; ts < options.timestamps; ++ts) {
    const UpdateBatch batch = workload->Step();
    if (!pipelined) cpu.Reset();
    Stopwatch wall;
    const Status st = server->SubmitBatch(batch);
    if (options.measure_memory) CKNN_CHECK(server->Drain().ok());
    TimestepMetrics step;
    step.seconds = wall.ElapsedSeconds();
    step.cpu_seconds = cpu.ElapsedSeconds();
    cpu.Reset();
    CKNN_CHECK(st.ok());
    if (options.measure_memory) {
      step.memory_bytes = server->MonitorMemoryBytes();
      step.server_bytes = server->MemoryBytes();
    }
    metrics.steps.push_back(step);
  }
  {
    // Retire the last in-flight tick; its remaining cost belongs to the
    // run, so fold it into the final step (a no-op at depth 1).
    Stopwatch wall;
    cpu.Reset();
    CKNN_CHECK(server->Drain().ok());
    if (!metrics.steps.empty()) {
      metrics.steps.back().seconds += wall.ElapsedSeconds();
      metrics.steps.back().cpu_seconds += cpu.ElapsedSeconds();
    }
  }
  return metrics;
}

}  // namespace cknn
