// BurstPool, the one index fan-out: lanes claim bursts from a shared cursor.
//
// This translation unit overrides the global allocation functions with
// counting wrappers so the single-lane test can assert an exact allocation
// count of zero.
#include "pipeline/burst_pipeline.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ftspanner/parallel.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ftspan {
namespace {

// --- BurstPool -----------------------------------------------------------

// Every index in [0, count) must run exactly once, whatever the worker
// count — including runs shorter than one burst per lane.
TEST(BurstPool, CoversEveryIndexExactlyOnce) {
  const std::size_t counts[] = {0, 1, 7, 64, 257};
  const std::size_t workerses[] = {1, 2, 4};
  for (const std::size_t workers : workerses) {
    std::vector<std::atomic<int>> hits(257);
    BurstPool pool(workers, [&hits](std::size_t) -> BurstTask {
      return [&hits](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      };
    });
    for (const std::size_t count : counts) {
      for (auto& h : hits) h.store(0);
      pool.run(count);
      for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), i < count ? 1 : 0)
            << "count=" << count << " workers=" << workers << " i=" << i;
    }
  }
}

// Waits, for at most 10 s, until `pred` holds. False on timeout, so a test
// that depends on other lanes making progress fails instead of hanging.
template <class Pred>
bool wait_until(const Pred& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// A run shorter than workers * kDefaultBurst still reaches every lane:
// claims narrow to ceil(remaining / (16 * lanes)), so 12 indices over 4
// lanes cannot all land in one claim. Every task waits until all four lanes
// have started one; a lane that took the whole run would wait alone.
TEST(BurstPool, ShortRunReachesEveryLane) {
  constexpr std::size_t kWorkers = 4;
  std::vector<std::atomic<int>> lane_hits(kWorkers);
  std::atomic<std::size_t> lanes_seen{0};
  std::atomic<bool> stranded{false};
  BurstPool pool(kWorkers, [&](std::size_t w) -> BurstTask {
    return [&, w](std::size_t) {
      if (lane_hits[w].fetch_add(1) == 0) lanes_seen.fetch_add(1);
      if (!wait_until([&] { return lanes_seen.load() == kWorkers; }))
        stranded.store(true);
    };
  });
  pool.run(12);
  EXPECT_FALSE(stranded.load());
  for (std::size_t w = 0; w < kWorkers; ++w)
    EXPECT_GT(lane_hits[w].load(), 0) << "lane " << w;
}

// A lane stuck on a costly index holds only the burst it claimed: while
// index 0 blocks, the other lanes must finish every index outside one
// kDefaultBurst-wide claim. Any fixed dealing of bursts to lanes would
// strand the blocked lane's later bursts and fail this.
TEST(BurstPool, StalledLaneDoesNotStrandTheRun) {
  constexpr std::size_t kCount = 64;
  for (const std::size_t workers : {2u, 4u}) {
    std::atomic<std::size_t> finished{0};
    std::atomic<bool> stranded{false};
    BurstPool pool(workers, [&](std::size_t) -> BurstTask {
      return [&](std::size_t i) {
        if (i == 0 && !wait_until([&] {
              return finished.load() >= kCount - kDefaultBurst;
            }))
          stranded.store(true);
        finished.fetch_add(1);
      };
    });
    pool.run(kCount);
    EXPECT_FALSE(stranded.load()) << "workers=" << workers;
    EXPECT_EQ(finished.load(), kCount) << "workers=" << workers;
  }
}

// Several indices throw; run() rethrows the lowest failing index's
// exception at every worker count, whichever lane ran it.
TEST(BurstPool, RethrowsTheLowestFailingIndex) {
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    BurstPool pool(workers, [](std::size_t) -> BurstTask {
      return [](std::size_t i) {
        if (i == 20 || i == 70) throw std::runtime_error(std::to_string(i));
      };
    });
    for (int round = 0; round < 4; ++round) {
      try {
        pool.run(100);
        ADD_FAILURE() << "no exception, workers=" << workers;
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "20") << "workers=" << workers;
      }
    }
  }
}

// A mid-stream throw must reach the caller while the other lane keeps
// claiming: 10000 indices over 2 lanes, the failure early in the run.
TEST(BurstPool, TaskExceptionPropagatesWithoutDeadlock) {
  BurstPool pool(2, [](std::size_t) -> BurstTask {
    return [](std::size_t i) {
      if (i == 37) throw std::runtime_error("boom");
    };
  });
  EXPECT_THROW(pool.run(10000), std::runtime_error);
}

// The consumer contract the conversion engine relies on: union_iterations
// over the pool produces the same marks as the sequential loop, for every
// worker count (and so whichever lane claims which iteration).
TEST(BurstPool, UnionIterationsIsGeometryInvariant) {
  constexpr std::size_t kEdges = 512;
  const IterationBodyFactory factory = [](std::size_t) -> IterationBody {
    return [](std::size_t it, std::vector<char>& marks) {
      // A deterministic, iteration-dependent scatter.
      for (std::size_t j = 0; j < 16; ++j)
        marks[(it * 31 + j * 97) % kEdges] = 1;
    };
  };
  for (const std::size_t iters : {5u, 40u, 200u}) {
    const std::vector<char> want = union_iterations(iters, 1, kEdges, factory);
    for (const std::size_t workers : {2u, 3u, 8u})
      EXPECT_EQ(union_iterations(iters, workers, kEdges, factory), want)
          << "iters=" << iters << " workers=" << workers;
  }
}

// A single-worker pool runs inline: after the constructor has built the
// task, run() is task calls on the caller's thread — no threads, no
// allocation.
TEST(BurstPool, SingleWorkerRunIsInlineAndAllocationFree) {
  std::size_t sum = 0;
  std::thread::id ran_on;
  BurstPool pool(1, [&](std::size_t) -> BurstTask {
    return [&sum, &ran_on](std::size_t i) {
      sum += i;
      ran_on = std::this_thread::get_id();
    };
  });
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  pool.run(100000);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(sum, std::size_t{100000} * 99999 / 2);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(after - before, 0u);
}

// The persistent pool reuses its lanes call after call: the factory runs
// once per worker (not once per run), and every run covers its indices
// exactly once.
TEST(BurstPool, ReusesLanesAcrossRuns) {
  constexpr std::size_t kWorkers = 3;
  std::atomic<std::size_t> factory_calls{0};
  std::vector<std::atomic<int>> hits(257);
  BurstPool pool(kWorkers, [&](std::size_t) -> BurstTask {
    factory_calls.fetch_add(1, std::memory_order_relaxed);
    return [&hits](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    };
  });
  EXPECT_EQ(pool.workers(), kWorkers);

  const std::size_t counts[] = {1, 64, 257, 7, 0, 100};
  int rounds = 0;
  for (const std::size_t count : counts) {
    for (auto& h : hits) h.store(0);
    pool.run(count);
    ++rounds;
    for (std::size_t i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i].load(), i < count ? 1 : 0)
          << "round=" << rounds << " count=" << count << " i=" << i;
  }
  EXPECT_EQ(factory_calls.load(), kWorkers);
}

// A task exception poisons one run, not the pool: run() rethrows, then the
// next run must succeed (the error slot is cleared) — inline or threaded.
TEST(BurstPool, RecoversAfterATaskException) {
  for (const std::size_t workers : {1u, 2u}) {
    std::atomic<bool> armed{true};
    std::atomic<std::size_t> done{0};
    BurstPool pool(workers, [&](std::size_t) -> BurstTask {
      return [&](std::size_t i) {
        if (armed.load(std::memory_order_relaxed) && i == 13)
          throw std::runtime_error("boom");
        done.fetch_add(1, std::memory_order_relaxed);
      };
    });
    EXPECT_THROW(pool.run(100), std::runtime_error);
    armed.store(false);
    done.store(0);
    pool.run(100);
    EXPECT_EQ(done.load(), 100u) << "workers=" << workers;
  }
}

// A factory that throws poisons the pool permanently: every run rethrows
// (the lane never got a task) before running any index. The one-lane pool
// keeps the same contract.
TEST(BurstPool, FactoryFailurePoisonsEveryRun) {
  std::atomic<std::size_t> ran{0};
  BurstPool pool(2, [&ran](std::size_t w) -> BurstTask {
    if (w == 1) throw std::runtime_error("factory boom");
    return [&ran](std::size_t) { ran.fetch_add(1); };
  });
  EXPECT_THROW(pool.run(50), std::runtime_error);
  EXPECT_THROW(pool.run(50), std::runtime_error);
  EXPECT_EQ(ran.load(), 0u);

  BurstPool inline_pool(1, [](std::size_t) -> BurstTask {
    throw std::runtime_error("factory boom");
  });
  EXPECT_THROW(inline_pool.run(50), std::runtime_error);
  EXPECT_THROW(inline_pool.run(50), std::runtime_error);
}

// --- BurstPool teardown --------------------------------------------------
//
// The pool's destructor runs while helper threads may still be between
// their check-out and the idle wait; these tests hammer that
// window from every shape the serve layer can produce (see the teardown
// contract in burst_pipeline.hpp). They are primarily TSan/ASan fodder: the
// assertions are thin on purpose — the property under test is "no data
// race, no deadlock, no touch-after-free during teardown".

// Destroy the pool the instant run() returns, while helpers are still
// winding down from their check-out. Slow tasks widen the window; several
// rounds make the interleaving vary.
TEST(BurstPool, DestructionImmediatelyAfterRunIsClean) {
  for (int round = 0; round < 8; ++round) {
    std::atomic<std::size_t> done{0};
    {
      BurstPool pool(4, [&done](std::size_t) -> BurstTask {
        return [&done](std::size_t) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          done.fetch_add(1, std::memory_order_relaxed);
        };
      });
      pool.run(64);
    }  // ~BurstPool races the workers' post-completion wind-down
    EXPECT_EQ(done.load(), 64u);
  }
}

// A run that throws still waits for every helper to check out before
// rethrowing, so tearing the pool down right out of the catch block must be
// as safe as after a clean run — no helper may still hold a claim whose
// task state is gone.
TEST(BurstPool, DestructionAfterAThrowingRunIsClean) {
  for (int round = 0; round < 8; ++round) {
    bool threw = false;
    {
      BurstPool pool(3, [](std::size_t) -> BurstTask {
        return [](std::size_t i) {
          if (i == 17) throw std::runtime_error("boom");
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        };
      });
      try {
        pool.run(200);
      } catch (const std::runtime_error&) {
        threw = true;
      }
    }
    EXPECT_TRUE(threw);
  }
}

// Construct-then-destroy with no run in between: the stop flag may be set
// before a helper has reached its first idle wait, and the join must still
// succeed.
TEST(BurstPool, DestructionWithoutAnyRunIsClean) {
  for (int round = 0; round < 16; ++round) {
    BurstPool pool(4, [](std::size_t) -> BurstTask {
      return [](std::size_t) {};
    });
  }
}

// The epoch-teardown shape: the pool is built and run on one thread, but
// the last owner drops it from another (a retired engine's final reference
// is released by whichever thread held it — for the serve daemon, possibly
// the reload worker). The destructor must not assume the caller's thread
// identity.
TEST(BurstPool, DestructionOnADifferentThreadIsClean) {
  std::atomic<std::size_t> done{0};
  auto pool = std::make_unique<BurstPool>(3, [&done](std::size_t) -> BurstTask {
    return [&done](std::size_t) {
      done.fetch_add(1, std::memory_order_relaxed);
    };
  });
  pool->run(100);
  EXPECT_EQ(done.load(), 100u);
  std::thread reaper([p = std::move(pool)]() mutable { p.reset(); });
  reaper.join();
}

}  // namespace
}  // namespace ftspan
