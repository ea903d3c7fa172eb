#ifndef CKNN_PERFBENCH_TRACER_H_
#define CKNN_PERFBENCH_TRACER_H_

// In-memory span recorder of the traced run. Spans are recorded by the
// benchmark around its calls into each layer's public functions (nothing
// is traced inside the library); they are written out only when the run
// ends, as a Chrome trace-event file (opens in Perfetto or
// chrome://tracing) plus a per-layer table with self times.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using SpanId = std::int64_t;
  static constexpr SpanId kNoSpan = -1;

  /// A disabled tracer records nothing and costs one branch per call.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span starting now and returns its id (kNoSpan when tracing
  /// is off). `lane` is the Chrome-trace thread row; `request` groups the
  /// spans of one request. Thread-safe.
  SpanId Begin(const std::string& name, SpanId parent = kNoSpan,
               std::uint64_t request = 0, int lane = 0);
  /// Closes a span opened by Begin (no-op for kNoSpan).
  void End(SpanId id);
  /// Records a finished span; `start`/`end` are WallSeconds() readings.
  SpanId Record(const std::string& name, double start, double end,
                SpanId parent = kNoSpan, std::uint64_t request = 0,
                int lane = 0);

  /// Writes the Chrome trace-event JSON; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

  /// Prints per layer (the span-name prefix before the first '.') the
  /// span count, total time and self time (total minus the part covered
  /// by child spans).
  void PrintLayerTable() const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    SpanId parent = kNoSpan;
    std::uint64_t request = 0;
    int lane = 0;
  };

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_.
};

}  // namespace perfbench

#endif  // CKNN_PERFBENCH_TRACER_H_
