// BurstPool — the one index fan-out.
//
// The repo's hot fan-outs (conversion sampling iterations, StretchOracle
// fault-set checks, the serve daemon's cache misses) are index loops
// 0..count whose bodies run on per-worker pooled state. BurstPool applies
// the dataplane shape to them (per-core workers, SPSC rings, burst
// processing — the ndn-dpdk idiom):
//
//   - the coordinator slices 0..count into bursts and round-robins them
//     into one SpscRing per worker (single producer: the coordinator;
//     single consumer: the worker — no shared ring, no CAS anywhere);
//   - each worker drains its own ring and runs whole bursts against its
//     own state (engines, scratch graphs), so the shared-line traffic is
//     one acquire/release pair per burst instead of per task;
//   - distribution is deterministic (burst b → worker b % workers), which
//     keeps "which worker ran which index" reproducible, though callers must
//     not depend on it — output determinism comes from index-keyed results.
//
// Exceptions: a worker that throws records the first exception and discards
// the rest of its feed (it keeps draining so the coordinator never blocks on
// a full ring); the coordinator rethrows the lowest-indexed worker's
// exception after the run completes.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace ftspan {

/// Upper bound on indices per burst. Large enough to amortize the ring
/// hand-off; a run too short to give every worker a full burst is cut into
/// narrower ones instead (burst_width), so no lane sits idle while another
/// holds the whole run.
inline constexpr std::size_t kDefaultBurst = 16;

/// Sanity ceiling on worker count, not a tuning knob: far above any
/// speedup-bearing thread count, low enough that a bogus request (e.g.
/// size_t(-1)) cannot exhaust OS threads — each worker also owns per-lane
/// state such as an m-byte mark buffer or a pair of Dijkstra engines.
inline constexpr std::size_t kMaxWorkers = 256;

/// The machine's hardware concurrency, never reported as 0.
std::size_t hardware_threads();

/// Worker count actually used for a request: 0 means "all hardware threads";
/// the result is clamped to [1, min(tasks, kMaxWorkers)] so oversubscription
/// never spawns idle workers. Callers without a task count (a server sizing
/// its lanes up front) leave `tasks` at its default.
std::size_t resolve_threads(std::size_t requested,
                            std::size_t tasks = kMaxWorkers);

/// Indices per burst for a run of `count` over `workers` lanes:
/// min(kDefaultBurst, ceil(count / workers)). Never changes an output — it
/// only decides which lane runs which index.
std::size_t burst_width(std::size_t count, std::size_t workers);

/// Runs one index of the fan-out. Invoked on the owning worker's thread.
using BurstTask = std::function<void(std::size_t)>;

/// Creates the task for worker `w`; called on worker w's own thread, so
/// per-worker state (engines, scratch) is constructed where it runs.
using BurstTaskFactory = std::function<BurstTask(std::size_t worker)>;

/// A fixed set of worker lanes kept alive across run() calls: workers block
/// on a per-lane condition variable while idle (no spinning between runs)
/// and drain their SPSC ring while a run is in flight. With one worker the
/// pool spawns no thread at all: the factory runs in the constructor and
/// run() is a plain loop on the caller's thread.
///
/// Contracts:
///   - the factory runs once per worker, on that worker's own thread (the
///     caller's, for a one-worker pool);
///   - distribution is deterministic (burst b -> worker b % workers);
///   - a worker that throws abandons the rest of its feed but keeps
///     draining, and run() rethrows the lowest-indexed worker's exception
///     (after which the pool is usable again — the error slot is cleared).
///
/// One coordinator thread at a time: run() calls must not overlap.
///
/// Teardown contract: run() returns (or throws) only after every burst of
/// that run has been popped and counted, so the destructor never races
/// in-flight feed — it merely flips each lane's stop flag and joins workers
/// that are either idle or finishing their last completion hand-off. The
/// pool may therefore be destroyed immediately after run() returns, after
/// run() threw, without ever calling run(), and from a different thread
/// than the one that ran it (the epoch-teardown shape: the last owner of a
/// retired engine drops it from whichever thread held the final reference).
class BurstPool {
 public:
  /// Stands up `workers` lanes (0 is taken as 1; capped at kMaxWorkers).
  /// The factory is invoked on each worker thread before its first burst —
  /// or here, on the caller's thread, for a single-worker pool. A factory
  /// that throws poisons its lane: the lane's bursts are drained unrun and
  /// every run() rethrows.
  BurstPool(std::size_t workers, BurstTaskFactory factory);
  ~BurstPool();  ///< joins all workers

  BurstPool(const BurstPool&) = delete;
  BurstPool& operator=(const BurstPool&) = delete;

  std::size_t workers() const { return lanes_.size(); }

  /// Runs task(i) for every i in [0, count), burst_width(count, workers())
  /// indices per hand-off. Blocks until every burst has been processed.
  void run(std::size_t count);

 private:
  struct Lane;
  struct Completion;
  void feed(Lane& lane, std::size_t begin, std::size_t end);

  std::vector<std::unique_ptr<Lane>> lanes_;
  std::unique_ptr<Completion> done_;
  std::vector<std::thread> threads_;  ///< empty for a single-worker pool
};

}  // namespace ftspan
