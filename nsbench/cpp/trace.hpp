// In-memory span tracing for the nsbench program.
//
// Spans are recorded from the benchmark's own code, around each call it
// makes into an nsmodel layer ("geom.deploy", "net.adjacency",
// "sim.sweep", ...).  The text before the first '.' of a span name is its
// layer.  Spans stay in memory while the benchmark runs and are written
// out once, at exit.  A disabled tracer reads no clocks and records
// nothing, which is how the untraced passes run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nsbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of `values`; NaN when empty.
double median(std::vector<double> values);

/// One timed call into a layer.
struct Span {
  std::string name;    ///< "<layer>.<call>"
  double start = 0.0;  ///< seconds since the tracer's origin
  double end = 0.0;
  int parent = -1;     ///< index of the enclosing open span, -1 at the root
  int op = -1;         ///< pass id (see Tracer::setOp)
  std::uint64_t thread = 0;
};

/// Records spans from the thread that owns it (the main thread); the
/// library's worker threads are never traced directly.
class Tracer {
 public:
  explicit Tracer(bool enabled = false);

  bool enabled() const { return enabled_; }
  void setEnabled(bool enabled) { enabled_ = enabled; }

  /// Tags every span opened from now on with pass id `op`.
  void setOp(int op) { op_ = op; }

  /// Closes its span on destruction; inert when the tracer was disabled
  /// as the span was opened.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    friend class Tracer;
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    Tracer* tracer_;
    int index_;
  };

  Scope span(const char* name);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer over the spans of pass `op`: each span's
  /// duration minus the part of it that its child spans cover.
  std::map<std::string, double> selfSeconds(int op) const;

  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  void close(int index);

  bool enabled_;
  int op_ = -1;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace nsbench
