// The greedy k-spanner of Althöfer, Das, Dobkin, Joseph, and Soares (1993).
//
// Process edges by non-decreasing length; keep an edge iff the spanner built
// so far does not already connect its endpoints within k times its length.
// The result is a k-spanner with girth > k + 1, hence size O(n^{1 + 2/(k+1)})
// for odd k — the base construction behind Corollary 2.2 of the paper.
//
// The conversion of Theorem 2.1 runs this construction Θ(r³ log n) times on
// the same graph under different fault masks, so the repeated-run state is
// split out explicitly:
//
//   GreedyContext    per-graph, immutable: the edge-weight sort, computed
//                    once and shared by every iteration (and every worker).
//   GreedyWorkspace  per-thread, mutable: the incrementally grown spanner
//                    adjacency, the pooled Dijkstra engine, and the output
//                    buffer. Reset between runs in O(kept edges); performs
//                    zero heap allocations after its first run on a context.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/engine_policy.hpp"
#include "graph/graph.hpp"
#include "graph/sp_engine.hpp"

namespace ftspan {

/// Immutable per-graph context for repeated greedy runs.
struct GreedyContext {
  explicit GreedyContext(const Graph& g);

  /// An edge in the weight-sorted scan: the greedy loop walks these
  /// sequentially, so endpoints/weight/id arrive in one cache line instead
  /// of a random load into the graph's edge array per candidate.
  struct OrderedEdge {
    Vertex u, v;
    Weight w;
    EdgeId id;
  };

  const Graph* graph;
  std::vector<OrderedEdge> sorted;  ///< edges by non-decreasing weight
  WeightProfile weights;            ///< hoisted weight facts (once per graph)
};

/// Per-thread workspace: never share one across concurrent callers.
class GreedyWorkspace {
 public:
  /// The greedy k-spanner of ctx.graph \ faults. The returned span points
  /// into the workspace and is valid until the next call.
  std::span<const EdgeId> run(const GreedyContext& ctx, double k,
                              const VertexSet* faults = nullptr);

  // Lower-level interface for variants that interleave their own filtering
  // with the greedy loop (e.g. the layered baseline and the edge-fault
  // conversion): an incrementally grown scratch graph plus bounded
  // point-to-point queries against it.

  /// Clears the scratch spanner back to n isolated vertices, in time
  /// proportional to the number of edges added since the last reset.
  void reset(std::size_t n);
  /// Adds {u, v} with length w to the scratch spanner.
  void add_edge(Vertex u, Vertex v, Weight w);
  /// d(s, t) on the current scratch spanner minus `faults`, searching no
  /// farther than `bound`; kInfiniteWeight if not reachable within it.
  /// Intended for threshold decisions of the form "d > bound-ish": away
  /// from `bound` the value may carry bidirectional-summation rounding (an
  /// ulp or so), but within a relative tie window of `bound` it is exactly
  /// the historical forward-Dijkstra value, so comparisons against
  /// thresholds near `bound` are bit-stable (see the .cpp).
  Weight bounded_pair(Vertex s, Vertex t, const VertexSet* faults,
                      Weight bound);
  /// Pre-sizes every buffer for a graph with n vertices and up to max_edges
  /// scratch edges, making even the first run allocation-free.
  void reserve(std::size_t n, std::size_t max_edges);

  /// Engine policy for this workspace's searches; kAuto picks the bucketed
  /// queue on integer-weight graphs. Takes effect at the next
  /// configure_scratch (run() configures from its context automatically).
  void set_engine(SpEnginePolicy policy) { policy_ = policy; }

  /// Binds the workspace to a graph's hoisted weight profile: resolves the
  /// engine policy against it and enables the exact-sums fast path when
  /// every scratch path length is exactly representable. Scratch edges are
  /// always a subset of the profiled graph's edges, so the profile is an
  /// upper bound on anything add_edge will see. Callers driving the
  /// lower-level reset/add_edge/bounded_pair interface directly must call
  /// this once per graph; the default (unconfigured) state is the
  /// conservative heap + tie-window-fallback path, which is correct on any
  /// weights.
  void configure_scratch(const WeightProfile& wp);

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct HalfArc {
    Weight w;
    Vertex to;
    std::uint32_t next;  ///< next slot in this vertex's list, or kNone
  };  // 16 bytes: weight first so the struct packs without padding

  DijkstraEngine eng_, bwd_;         ///< forward/exact engine + backward half
  SpEnginePolicy policy_ = SpEnginePolicy::kAuto;
  bool exact_sums_ = false;          ///< from the profile; gates the tie window
  std::vector<std::uint32_t> head_;  ///< per-vertex first slot, or kNone
  std::vector<HalfArc> pool_;        ///< two slots per added edge
  std::vector<Vertex> touched_;      ///< vertices whose head_ is live
  std::vector<EdgeId> kept_;         ///< output buffer for run()
};

/// Returns the ids (into g) of the greedy k-spanner's edges, computed on
/// G \ faults (edges with a failed endpoint are skipped). Requires k >= 1.
/// One-shot convenience over GreedyContext + GreedyWorkspace.
std::vector<EdgeId> greedy_spanner(const Graph& g, double k,
                                   const VertexSet* faults = nullptr);

/// Convenience: the greedy spanner as a Graph (same vertex ids as g).
Graph greedy_spanner_graph(const Graph& g, double k,
                           const VertexSet* faults = nullptr);

/// The Althöfer et al. size bound O(n^{1 + 2/(k+1)}) for odd k; used by the
/// experiment harness to normalize measured sizes.
double greedy_size_bound(std::size_t n, double k);

}  // namespace ftspan
