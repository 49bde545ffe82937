// Engine selection for the shortest-path engine (graph/sp_engine.hpp).
//
// The engine owns two priority structures: the 4-ary heap (works on any
// weights) and a bucketed queue for non-negative integer weights (key >>
// shift buckets with O(1) push; at shift 0 it is Dial's queue, above it a
// small heap orders only the open bucket). Callers express a *policy*; the
// structure and its shift are picked per graph from its hoisted weight
// profile (see WeightProfile in graph/csr.hpp), so `auto` costs one branch
// per run, not a per-run scan.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "graph/types.hpp"

namespace ftspan {

/// The priority structure a run resolves to. kBucket and kDelta are both
/// the bucketed queue and differ only in its shift: kBucket is shift 0
/// (Dial, max_weight <= kMaxBucketWeight), kDelta is shift > 0 (the
/// mid-range regime: DIMACS road weights up to ~10^6).
enum class SpQueue : std::uint8_t { kHeap, kBucket, kDelta };

/// What the caller asked for. kAuto resolves per graph: the bucketed queue
/// on non-negative integer weights, the heap otherwise (a label-setting
/// bucket structure is incorrect on fractional keys), so it is safe on every
/// graph. kHeap forces the heap — the reference the bucketed queue must
/// reproduce bit for bit.
enum class SpEnginePolicy : std::uint8_t { kAuto, kHeap };

/// Bucket budget of the bucketed queue: its circular array has at most
/// about kMaxBucketWeight + 1 buckets, and a pop scans forward one bucket at
/// a time (Dial's O(m + D)), so the budget caps that scan while the array
/// still fits in L1/L2. Integer weights up to it get one key per bucket
/// (shift 0); larger weights get power-of-two-wide buckets (see tune_delta).
inline constexpr Weight kMaxBucketWeight = 4096;

/// Auto-tuned bucket width: the smallest power of two delta such that
/// max_weight / delta <= kMaxBucketWeight. Power-of-two widths make
/// bucketing a shift, not a division. Examples: max_weight <= 4096 ->
/// delta 1, 10^5 -> delta 32, 10^6 -> delta 256.
inline Weight tune_delta(Weight max_weight) {
  Weight delta = 1;
  while (max_weight / delta > kMaxBucketWeight) delta *= 2;
  return delta;
}

inline SpQueue select_sp_queue(SpEnginePolicy policy, bool weights_integral,
                               Weight max_weight) {
  if (policy == SpEnginePolicy::kHeap || !weights_integral)
    return SpQueue::kHeap;
  return max_weight <= kMaxBucketWeight ? SpQueue::kBucket : SpQueue::kDelta;
}

inline const char* to_string(SpEnginePolicy p) {
  return p == SpEnginePolicy::kHeap ? "heap" : "auto";
}

inline const char* to_string(SpQueue q) {
  switch (q) {
    case SpQueue::kBucket: return "bucket";
    case SpQueue::kDelta: return "delta";
    default: return "heap";
  }
}

inline std::optional<SpEnginePolicy> parse_engine_policy(std::string_view s) {
  if (s == "auto") return SpEnginePolicy::kAuto;
  if (s == "heap") return SpEnginePolicy::kHeap;
  return std::nullopt;
}

}  // namespace ftspan
