// ftbench — the ftspan benchmark program.
//
//   ftbench --workload convert|validate|serve_miss --seed N
//           --seconds S --trace 0|1 [--out-dir DIR]
//
// Runs one workload (workloads.hpp), checks its outputs, and prints a
// record line plus, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1; spans are then written to DIR). Progress goes to stderr.
// `ftbench --print-pins FIRST LAST` prints the pins.inc rows for a seed
// range instead.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ftbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n"
               "       ftbench --print-pins FIRST LAST\n");
  return 2;
}

/// JSON has no NaN or infinity: a figure that came out non-finite (a ratio
/// over an empty sample) is written as 0.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ftbench;
  RunConfig cfg;
  cfg.nproc = std::max(1u, std::thread::hardware_concurrency());
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-pins" && i + 2 < argc)
      return print_pins(std::strtoull(argv[i + 1], nullptr, 10),
                        std::strtoull(argv[i + 2], nullptr, 10));
    if (i + 1 >= argc) return usage();
    const char* val = argv[++i];
    if (arg == "--workload") {
      cfg.workload = val;
      have_workload = known_workload(cfg.workload);
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(val, nullptr);
      have_seconds = cfg.seconds > 0;
    } else if (arg == "--trace") {
      cfg.trace = std::strcmp(val, "1") == 0;
      have_trace = cfg.trace || std::strcmp(val, "0") == 0;
    } else if (arg == "--out-dir") {
      cfg.out_dir = val;
    } else {
      return usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage();

  Trace trace(cfg.trace);
  Report rep;
  try {
    rep = run_workload(cfg, trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[ftbench] %s: %s\n", cfg.workload.c_str(), e.what());
    return 1;
  }

  if (cfg.trace && !cfg.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cfg.out_dir, ec);
    const std::string path = cfg.out_dir + "/" + cfg.workload + "_seed" +
                             std::to_string(cfg.seed) + ".json";
    if (trace.write_json(path))
      std::fprintf(stderr, "[ftbench] %zu spans written to %s\n", trace.size(),
                   path.c_str());
  }

  std::printf("# ftbench workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
              "hardware_concurrency=%u\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.nproc,
              std::thread::hardware_concurrency());
  for (const Metric& m : rep.metrics)
    std::printf("# %-28s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::string json = std::string("{\"correct\": ") +
                     (rep.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(rep.attempted) +
                     ", \"failed\": " + std::to_string(rep.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
