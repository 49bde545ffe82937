// Benchmark-side tracing and small statistics helpers.
//
// Spans are recorded only in the benchmark's own code, around each call it
// makes into a library layer: name (the layer, e.g. "spanner.base"), start,
// end, parent span and request id. They stay in memory until the run ends,
// when write_json() dumps them and self_times() folds them into per-layer
// self time (a span's duration minus the part of it its children cover).
// A disabled Trace records nothing, so the untraced run pays one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ftbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile q in [0, 1] of `v` (copied, then sorted);
/// 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

struct Span {
  const char* name = "";  ///< a string literal: the layer
  std::int64_t start_ns = 0;  ///< since the trace's origin
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;       ///< 1-based; 0 means "no span"
  std::uint64_t parent = 0;
  std::uint64_t request = 0;  ///< shared by every span of one serve request
};

class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (0 when disabled). Thread-safe. `name`
  /// must outlive the trace (pass a string literal).
  std::uint64_t begin(const char* name, std::uint64_t parent = 0,
                      std::uint64_t request = 0);
  /// Closes span `id` (no-op for 0). Thread-safe.
  void end(std::uint64_t id);
  /// Records an already-measured interval as a closed span.
  std::uint64_t record(const char* name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t parent = 0,
                       std::uint64_t request = 0);

  /// Per-layer self time in seconds: for every span, its duration minus the
  /// union of its children's intervals, summed by span name.
  std::map<std::string, double> self_times() const;

  std::size_t size() const;

  /// Writes {"spans": [...], "self_s": {...}} to `path`; false on I/O error.
  bool write_json(const std::string& path) const;

 private:
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Trace& trace, const char* name, std::uint64_t parent = 0,
        std::uint64_t request = 0)
      : trace_(trace), id_(trace.begin(name, parent, request)) {}
  ~Scope() { trace_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  Trace& trace_;
  std::uint64_t id_;
};

}  // namespace ftbench
