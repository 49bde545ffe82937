// The benchmark workloads and the report they fill.
//
// Every workload builds one instance — a generated graph and its
// r-fault-tolerant k-spanner — and runs all three hot paths on it: the
// Theorem 2.1 conversion, StretchOracle validation and the serve daemon.
// The workload's own path gets the timed budget (--seconds); the other two
// run once, at a fixed size, as correctness gates that also yield their
// end-to-end metric on this instance. See ftbench/README.md for the
// workload table and what each metric means.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace ftbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run prints: the correctness verdict, operations attempted and
/// failed, and the metrics of the requested kind.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Counts one checked operation; a false `ok` fails it and the run.
  void check(bool ok, const std::string& what);
  /// Counts `attempted` operations of which `failed` failed.
  void tally(std::uint64_t attempted, std::uint64_t failed,
             const std::string& what);
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< where the traced run writes its spans
  unsigned nproc = 1;
};

bool known_workload(const std::string& name);

/// Runs one workload; metrics are the end-to-end set (trace off) or the
/// per-layer set (trace on).
Report run_workload(const RunConfig& config, Trace& trace);

/// Prints the pins.inc rows (spanner edges_hash and oracle verdict of every
/// workload) for seeds first..last; returns the process exit code.
int print_pins(std::uint64_t first, std::uint64_t last);

}  // namespace ftbench
