#ifndef CKNN_TRACE_TRACE_H_
#define CKNN_TRACE_TRACE_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/updates.h"
#include "src/graph/road_network.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace cknn {

/// Version of the on-disk trace format this build reads and writes. See
/// docs/trace_format.md for the layout and the versioning rules.
inline constexpr int kTraceFormatVersion = 1;

/// \brief One free-form metadata entry of a trace header (e.g. the
/// generator seed or the CLI flags the trace was recorded under). Keys
/// contain no whitespace; values run to the end of the line.
struct TraceMeta {
  std::string key;
  std::string value;
};

/// \brief A recorded monitoring workload: the road network it ran on
/// (topology, lengths, and the weights at recording start) plus the exact
/// per-timestamp update batches, in tick order.
///
/// `batches[0]` is the initial tick (object appearances and query
/// installations); every later entry is one timestamp of updates. Replaying
/// the batches against a server built on a view of `network` reproduces
/// the recorded run bit-for-bit, for any monitoring algorithm — the
/// foundation of the cross-algorithm conformance checker.
struct Trace {
  int version = kTraceFormatVersion;
  std::vector<TraceMeta> meta;
  RoadNetwork network;
  std::vector<UpdateBatch> batches;
};

/// \brief Streaming trace writer. The header (version, metadata, network)
/// is written by `Open`; batches are appended one tick at a time, so
/// recording never buffers the whole workload. `Finish` writes the
/// end-of-trace trailer that lets readers detect truncated files.
class TraceWriter {
 public:
  static Result<TraceWriter> Open(const std::string& path,
                                  const std::vector<TraceMeta>& meta,
                                  const RoadNetwork& network);

  TraceWriter(TraceWriter&&) = default;
  TraceWriter& operator=(TraceWriter&&) = default;

  /// Appends one tick's batch. Order of calls defines the timestamps.
  Status AppendBatch(const UpdateBatch& batch);

  /// Writes the trailer and closes the file. Must be called exactly once;
  /// a trace without the trailer is reported as truncated on read.
  Status Finish();

  std::uint64_t batches_written() const { return batches_written_; }

 private:
  explicit TraceWriter(std::ofstream out) : out_(std::move(out)) {}

  std::ofstream out_;
  std::uint64_t batches_written_ = 0;
  bool finished_ = false;
};

/// \brief Streaming trace reader: parses the header eagerly, then yields
/// one batch per `NextBatch` call.
class TraceReader {
 public:
  static Result<TraceReader> Open(const std::string& path);

  TraceReader(TraceReader&&) = default;
  TraceReader& operator=(TraceReader&&) = default;

  int version() const { return version_; }
  const std::vector<TraceMeta>& meta() const { return meta_; }
  const RoadNetwork& network() const { return network_; }

  /// Moves the header's network out of the reader (callable once).
  RoadNetwork TakeNetwork() { return std::move(network_); }

  /// Reads the next batch into `*out`. Returns false at the (validated)
  /// end-of-trace trailer, an error on malformed or truncated input.
  Result<bool> NextBatch(UpdateBatch* out);

 private:
  explicit TraceReader(std::ifstream in) : in_(std::move(in)) {}

  Status ParseHeader();

  std::ifstream in_;
  int version_ = 0;
  std::vector<TraceMeta> meta_;
  RoadNetwork network_;
  std::uint64_t batches_read_ = 0;
  int line_number_ = 0;
};

/// Writes a whole in-memory trace (header + every batch + trailer).
Status WriteTrace(const Trace& trace, const std::string& path);

/// Reads a whole trace file. Validates the magic, version, network, record
/// syntax, and the end-of-trace trailer.
Result<Trace> ReadTrace(const std::string& path);

}  // namespace cknn

#endif  // CKNN_TRACE_TRACE_H_
