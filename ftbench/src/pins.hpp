// Pinned outputs of this commit, per (workload, seed): the spanner's
// edges_hash and the sampled oracle verdict. A run whose seed is listed
// must reproduce them bit for bit; other seeds fall back to a cross-engine
// identity check (workloads.cpp). Regenerate with `ftbench --print-pins`
// only when a change is meant to alter the algorithm's output.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "graph/types.hpp"

namespace ftbench {

struct Pin {
  const char* workload;
  std::uint64_t seed;
  std::uint64_t edges_hash;
  bool valid;
  double worst_stretch;
  ftspan::Vertex witness_u;
  ftspan::Vertex witness_v;
};

inline constexpr Pin kPins[] = {
#include "pins.inc"
};

inline std::optional<Pin> find_pin(const std::string& workload,
                                   std::uint64_t seed) {
  for (const Pin& p : kPins)
    if (workload == p.workload && seed == p.seed) return p;
  return std::nullopt;
}

}  // namespace ftbench
