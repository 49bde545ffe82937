// BurstPool — the one index fan-out.
//
// The repo's hot fan-outs (conversion sampling iterations, StretchOracle
// fault-set checks, the serve daemon's cache misses) are index loops
// 0..count whose bodies run on per-lane pooled state, and whose results are
// keyed by index. So which lane runs an index never reaches an output, and
// BurstPool schedules them the classic way: every lane claims its next
// burst of indices from one shared cursor (guided self-scheduling,
// Polychronopoulos–Kuck 1987). A lane stuck behind a costly index holds only
// the burst it claimed; the others drain the rest of the run.
//
// The caller of run() is lane 0 and claims alongside the helper lanes, so a
// pool of w lanes spawns w - 1 threads and a one-lane pool spawns none.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ftspan {

/// Upper bound on indices per claim, and the divisor of a lane's share in
/// the claim rule: a claim takes ceil(remaining / (kDefaultBurst * lanes))
/// indices, capped at kDefaultBurst. So no claim holds more than 1/16 of a
/// lane's share of what is left; when the costly indices sit together (the
/// oracle's random sets come before its cheap adversary probes), no lane
/// commits to a long block of them, every lane ends within about one index
/// of the others, and a run's time is an average over the lanes rather
/// than the time of the one lane that holds the largest claim.
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

/// Runs one index of the fan-out, on the lane that claimed it.
using BurstTask = std::function<void(std::size_t)>;

/// Creates the task for lane `w`: lane 0's on the constructing thread, every
/// other lane's on that lane's own thread, so per-lane state (engines,
/// scratch) is built where it mostly runs. Called concurrently across lanes.
using BurstTaskFactory = std::function<BurstTask(std::size_t worker)>;

/// A fixed set of lanes kept alive across run() calls. Helper lanes sleep
/// on a condition variable between runs (no spinning).
///
/// Contracts:
///   - the factory runs once per lane, and lane w's task is only ever
///     called by lane w (one call at a time);
///   - which lane runs which index is up to timing — callers key results
///     by index;
///   - a task that throws ends the run with the exception of the lowest
///     failing index: after a failure lanes skip only indices above the
///     lowest failure seen so far, so every lower index still runs. The
///     pool is usable again afterwards;
///   - a factory that throws poisons the pool: every run() with work
///     rethrows it (the lowest such lane's) before running any index.
///
/// One caller at a time: run() calls must not overlap.
///
/// Teardown contract: run() returns (or throws) only after every helper
/// lane has checked out of that run, so the destructor never races work in
/// flight — it wakes idle helpers with the stop flag and joins them. The
/// pool may therefore be destroyed immediately after run() returns, after
/// run() threw, without ever calling run(), and from a different thread
/// than the one that ran it (the epoch-teardown shape: the last owner of a
/// retired engine drops it from whichever thread held the final reference).
class BurstPool {
 public:
  /// Stands up `workers` lanes (0 is taken as 1; capped at kMaxWorkers) and
  /// returns once every lane's factory has run.
  BurstPool(std::size_t workers, const BurstTaskFactory& factory);
  ~BurstPool();  ///< joins all helper lanes

  BurstPool(const BurstPool&) = delete;
  BurstPool& operator=(const BurstPool&) = delete;

  std::size_t workers() const { return lanes_.size(); }

  /// Runs task(i) for every i in [0, count) on the caller and the helper
  /// lanes. Blocks until every helper has checked out of the run.
  void run(std::size_t count);

 private:
  struct Lane {
    BurstTask task;
    std::exception_ptr error;  ///< the lane's failure in the current run
    std::size_t failed_at = 0;
  };

  void helper(std::size_t w, const BurstTaskFactory& factory);
  /// Claims bursts for `lane` until the run is exhausted or every index
  /// left is above a failure.
  void claim(Lane& lane, std::size_t count);

  std::vector<Lane> lanes_;
  std::exception_ptr poison_;  ///< a factory's exception, for good

  std::mutex m_;
  std::condition_variable wake_;  ///< helpers: a new run or stop
  std::condition_variable idle_;  ///< caller: every helper checked out
  std::uint64_t generation_ = 0;  ///< guarded by m_; bumped per run
  std::size_t count_ = 0;         ///< guarded by m_; the current run's size
  std::size_t pending_ = 0;       ///< guarded by m_; helpers not checked out
  bool stop_ = false;             ///< guarded by m_

  alignas(64) std::atomic<std::size_t> cursor_{0};  ///< next unclaimed index
  alignas(64) std::atomic<std::size_t> failed_{0};  ///< lowest failure seen

  std::vector<std::thread> threads_;  ///< helper lanes 1..workers-1
};

}  // namespace ftspan
