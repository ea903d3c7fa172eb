#include "tracer.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common.h"

namespace perfbench {

Tracer::SpanId Tracer::Begin(const std::string& name, SpanId parent,
                             std::uint64_t request, int lane) {
  if (!enabled_) return kNoSpan;
  const double now = WallSeconds();
  return Record(name, now, now, parent, request, lane);
}

void Tracer::End(SpanId id) {
  if (id == kNoSpan) return;
  const double now = WallSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

Tracer::SpanId Tracer::Record(const std::string& name, double start,
                              double end, SpanId parent,
                              std::uint64_t request, int lane) {
  if (!enabled_) return kNoSpan;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, end, parent, request, lane});
  return static_cast<SpanId>(spans_.size() - 1);
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                 "\"args\": {\"id\": %zu, \"parent\": %lld, "
                 "\"request\": %llu}}\n",
                 i == 0 ? "" : ",", s.name.c_str(),
                 s.name.substr(0, s.name.find('.')).c_str(),
                 (s.start - origin) * 1e6, (s.end - s.start) * 1e6, s.lane, i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void Tracer::PrintLayerTable() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent == kNoSpan) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    const double overlap =
        std::min(s.end, p.end) - std::max(s.start, p.start);
    if (overlap > 0.0) {
      child_time[static_cast<std::size_t>(s.parent)] += overlap;
    }
  }
  struct Row {
    std::size_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Row& row = rows[s.name];
    ++row.count;
    row.total += s.end - s.start;
    row.self += std::max(0.0, s.end - s.start - child_time[i]);
  }
  std::printf("trace: %-28s %8s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (const auto& [name, row] : rows) {
    std::printf("trace: %-28s %8zu %12.3f %12.3f\n", name.c_str(), row.count,
                row.total * 1e3, row.self * 1e3);
  }
}

}  // namespace perfbench
