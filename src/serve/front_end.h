#ifndef CKNN_SERVE_FRONT_END_H_
#define CKNN_SERVE_FRONT_END_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "src/core/server.h"
#include "src/core/updates.h"
#include "src/graph/network_point.h"
#include "src/graph/types.h"
#include "src/sim/metrics.h"
#include "src/util/annotations.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace cknn {

/// \brief One client-issued update, as it arrives over the wire or from an
/// in-process producer. Unlike `ObjectUpdate`, a serve request carries no
/// old position — the front end resolves it against the object table when
/// the request is folded into a tick batch, so clients only ever state
/// where an entity *is*.
struct ServeRequest {
  enum class Op {
    kInstallQuery,
    kMoveQuery,
    kTerminateQuery,
    kAddObject,
    kMoveObject,
    kRemoveObject,
    kUpdateWeight,
  };

  Op op = Op::kMoveObject;
  /// Query id, object id, or edge id, depending on `op`.
  std::uint64_t id = 0;
  /// Target position (install/move/add ops).
  NetworkPoint pos;
  /// Neighbor count (kInstallQuery only).
  int k = 1;
  /// New edge weight (kUpdateWeight only).
  double weight = 0.0;
};

/// Knobs of the serving front end.
struct ServingConfig {
  /// Bounded submission-queue capacity; `TrySubmit` rejects with
  /// ResourceExhausted when full (admission control), `Submit` blocks
  /// (back-pressure).
  std::size_t queue_capacity = std::size_t{1} << 16;
  /// Largest number of requests coalesced into one engine tick; 0 takes
  /// everything queued (the batching window is then purely
  /// arrival-driven).
  std::size_t max_batch_requests = 0;
  /// Sample capacity of the update-latency reservoir.
  std::size_t latency_reservoir_capacity = 4096;
};

/// Counters of a serving front end, snapshotted by `Stats()`.
struct ServingStats {
  std::uint64_t accepted = 0;            ///< Requests admitted to the queue.
  std::uint64_t rejected_queue_full = 0; ///< TrySubmit ResourceExhausted.
  std::uint64_t rejected_invalid = 0;    ///< Dropped by validation.
  std::uint64_t applied = 0;             ///< Updates applied to the engine.
  std::uint64_t ticks = 0;               ///< Engine ticks submitted.
  std::size_t max_queue_depth = 0;       ///< High-water queue occupancy.
  std::uint64_t latency_samples = 0;     ///< Retired latency measurements.
  /// Wall-clock submit-to-visible latency percentiles (seconds), from the
  /// sampling reservoir; exact until it saturates.
  double latency_p50_sec = 0.0;
  double latency_p95_sec = 0.0;
  double latency_p99_sec = 0.0;
  double latency_max_sec = 0.0;
};

/// \brief Multi-producer ingest front end over `MonitoringServer`'s
/// `SubmitBatch`/`Drain` pipeline (docs/serving.md).
///
/// Producers push `ServeRequest`s into a bounded MPSC queue from any
/// number of threads; a batching window (the pump thread started by
/// `Start`, or a synchronous `Flush`) coalesces everything queued into one
/// canonical per-tick `UpdateBatch` and feeds it to the engine, which
/// aggregates per entity exactly as `Tick` would. Admission control is
/// explicit: `TrySubmit` returns ResourceExhausted when the queue is full,
/// `Submit` blocks until space frees up, and nothing in the client-facing
/// surface can trip an internal `CKNN_CHECK` — reads go through the
/// server's non-aborting `Try*` accessors, and each request is checked
/// with the server's own admission rules (`CheckObjectUpdate` and friends,
/// src/core/server.h) as the window is built: a failing request is counted
/// and dropped alone, and every window with an admitted update costs
/// exactly one engine tick.
///
/// Determinism: the batch built from a drained queue slice stable-sorts
/// each stream by entity id, so any interleaving of producers that
/// preserves per-entity order (e.g. a workload pre-partitioned across
/// producers by entity) folds to the same batch bytes — and therefore the
/// same results — as a serial replay of the same windows
/// (`BuildBatch` is exposed so tests can replay exactly that).
///
/// Thread-safety: `Submit`/`TrySubmit`/`ReadResult`/`Stats`/`QueueDepth`
/// may be called concurrently from any thread. `Start`, `Flush`, and
/// `Shutdown` are serialized against each other internally;
/// `Shutdown` drains the queue into final ticks before returning, and the
/// destructor implies it.
class ServingFrontEnd {
 public:
  /// A request dropped at build time, and why.
  struct Rejection {
    std::size_t index = 0;  ///< Position in the window (arrival order).
    Status status;
  };

  /// Outcome of folding one queue slice into a tick batch.
  struct BatchBuild {
    UpdateBatch batch;
    /// Requests the admission rules refused, in window order.
    std::vector<Rejection> rejected;
  };

  /// \param server the drained engine to feed; must outlive the front end.
  explicit ServingFrontEnd(MonitoringServer* server,
                           ServingConfig config = ServingConfig());

  ServingFrontEnd(const ServingFrontEnd&) = delete;
  ServingFrontEnd& operator=(const ServingFrontEnd&) = delete;

  ~ServingFrontEnd();

  /// Non-blocking admission: ResourceExhausted when the queue is full,
  /// FailedPrecondition after shutdown, OK otherwise.
  Status TrySubmit(const ServeRequest& request) CKNN_EXCLUDES(queue_mu_);

  /// Blocking admission (back-pressure): waits for queue space.
  /// FailedPrecondition after (or upon) shutdown.
  Status Submit(const ServeRequest& request) CKNN_EXCLUDES(queue_mu_);

  /// Starts the background batching pump. Call at most once, before any
  /// concurrent use of `Flush`.
  void Start() CKNN_EXCLUDES(lifecycle_mu_, queue_mu_);

  /// Synchronous barrier: every request accepted before this call is
  /// folded into the engine and the engine is drained. Returns the first
  /// non-OK engine status encountered, OK otherwise. Without a pump this
  /// is the only way requests reach the engine.
  Status Flush() CKNN_EXCLUDES(lifecycle_mu_, queue_mu_, engine_mu_);

  /// Drains the queue into final ticks, drains the engine, and stops the
  /// pump. Subsequent submissions fail with FailedPrecondition;
  /// `ReadResult`/`Stats` keep working. Idempotent.
  void Shutdown() CKNN_EXCLUDES(lifecycle_mu_, queue_mu_, engine_mu_);

  /// Current k-NN set of a query, as of the last tick the engine
  /// completed (call `Flush` first for read-your-writes). Drains any
  /// in-flight tick; never aborts: NotFound for an unknown query.
  Result<std::vector<Neighbor>> ReadResult(QueryId id)
      CKNN_EXCLUDES(engine_mu_);

  /// Requests currently queued (not yet folded into a tick).
  std::size_t QueueDepth() const CKNN_EXCLUDES(queue_mu_);

  /// Snapshot of the serving counters (percentiles computed on the spot).
  ServingStats Stats() const CKNN_EXCLUDES(queue_mu_, engine_mu_);

  /// Last non-OK status: the reason of the latest rejected request or
  /// refused window; OK if none. For diagnostics — rejects are already
  /// counted in Stats().
  Status last_error() const CKNN_EXCLUDES(engine_mu_);

  /// Folds `requests` (arrival order) into one canonical tick batch
  /// against `server`'s current tables. Streams are split per kind and
  /// stable-sorted by entity id; each entity's chain is then walked with
  /// one running state (position or registration) seeded from the tables.
  /// Each request is lowered to an update and checked with the server's
  /// own rule: an admitted update is emitted and advances the state, a
  /// refused one is recorded with its status. Ids first pass the wire's
  /// range rule (`serve::CheckWireId`: above 2^32 - 1 an id would alias
  /// another entity). The one rule of the front end's own: a move or
  /// remove of an absent object is NotFound, since its update must carry
  /// the current position. The batch therefore passes `SubmitBatch`'s
  /// validation. Static so tests can replay the exact serving fold
  /// serially.
  static BatchBuild BuildBatch(const std::vector<ServeRequest>& requests,
                               const MonitoringServer& server);

 private:
  using Clock = std::chrono::steady_clock;

  struct Entry {
    ServeRequest request;
    Clock::time_point enqueued;
  };

  /// Moves up to `max_batch_requests` entries off the queue front.
  /// queue_mu_ held.
  std::vector<Entry> TakeSliceLocked() CKNN_REQUIRES(queue_mu_);

  /// Folds one slice into the engine: build, submit once, retire
  /// latencies. Takes engine_mu_.
  void ProcessSlice(std::vector<Entry> slice)
      CKNN_EXCLUDES(queue_mu_, engine_mu_);

  /// Drains the engine and retires pending latencies. engine_mu_ held.
  Status DrainEngineLocked() CKNN_REQUIRES(engine_mu_);

  /// Records `enqueued -> now` for every pending retirement. engine_mu_
  /// held.
  void RetirePendingLocked(Clock::time_point now) CKNN_REQUIRES(engine_mu_);

  void PumpLoop() CKNN_EXCLUDES(queue_mu_, engine_mu_);

  /// The engine and everything fed to or read from it is serialized by
  /// engine_mu_ (the pointer itself is set once in the constructor).
  MonitoringServer* server_ CKNN_PT_GUARDED_BY(engine_mu_);
  ServingConfig config_;  ///< Immutable after construction.

  /// Producer side: the bounded MPSC queue and its admission stats.
  mutable Mutex queue_mu_;
  CondVar not_empty_;
  CondVar not_full_;
  /// Signals `queue empty and pump idle` (the Flush barrier with a pump).
  CondVar drained_;
  std::deque<Entry> queue_ CKNN_GUARDED_BY(queue_mu_);
  bool shutdown_ CKNN_GUARDED_BY(queue_mu_) = false;
  bool pump_busy_ CKNN_GUARDED_BY(queue_mu_) = false;
  std::uint64_t accepted_ CKNN_GUARDED_BY(queue_mu_) = 0;
  std::uint64_t rejected_queue_full_ CKNN_GUARDED_BY(queue_mu_) = 0;
  std::size_t max_queue_depth_ CKNN_GUARDED_BY(queue_mu_) = 0;

  /// Consumer side: engine access, latency accounting, engine stats.
  mutable Mutex engine_mu_;
  std::vector<Clock::time_point> pending_retire_ CKNN_GUARDED_BY(engine_mu_);
  LatencyReservoir latency_ CKNN_GUARDED_BY(engine_mu_);
  std::uint64_t rejected_invalid_ CKNN_GUARDED_BY(engine_mu_) = 0;
  std::uint64_t applied_ CKNN_GUARDED_BY(engine_mu_) = 0;
  std::uint64_t ticks_ CKNN_GUARDED_BY(engine_mu_) = 0;
  Status last_error_ CKNN_GUARDED_BY(engine_mu_);

  /// Lifecycle (Start/Flush/Shutdown serialization).
  Mutex lifecycle_mu_;
  std::thread pump_ CKNN_GUARDED_BY(lifecycle_mu_);
};

}  // namespace cknn

#endif  // CKNN_SERVE_FRONT_END_H_
