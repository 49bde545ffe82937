#include "pipeline/burst_pipeline.hpp"

#include <algorithm>

namespace ftspan {

std::size_t hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

std::size_t resolve_threads(std::size_t requested, std::size_t tasks) {
  std::size_t t = requested == 0 ? hardware_threads() : requested;
  t = std::min(t, std::max<std::size_t>(tasks, 1));
  return std::clamp<std::size_t>(t, 1, kMaxWorkers);
}

BurstPool::BurstPool(std::size_t workers, const BurstTaskFactory& factory)
    : lanes_(std::clamp<std::size_t>(workers, 1, kMaxWorkers)) {
  pending_ = lanes_.size() - 1;
  threads_.reserve(pending_);
  for (std::size_t w = 1; w < lanes_.size(); ++w)
    threads_.emplace_back([this, &factory, w] { helper(w, factory); });
  try {
    lanes_[0].task = factory(0);
  } catch (...) {
    lanes_[0].error = std::current_exception();
  }
  // Helpers reference `factory` until they check in, so wait for them.
  std::unique_lock<std::mutex> l(m_);
  idle_.wait(l, [this] { return pending_ == 0; });
  for (Lane& lane : lanes_)
    if (poison_ == nullptr) poison_ = lane.error;
}

BurstPool::~BurstPool() {
  {
    std::lock_guard<std::mutex> l(m_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void BurstPool::helper(std::size_t w, const BurstTaskFactory& factory) {
  Lane& lane = lanes_[w];
  try {
    lane.task = factory(w);
  } catch (...) {
    lane.error = std::current_exception();
  }
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> l(m_);
  for (;;) {
    if (--pending_ == 0) idle_.notify_one();
    wake_.wait(l, [this, seen] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    const std::size_t count = count_;
    l.unlock();
    claim(lane, count);
    l.lock();
  }
}

void BurstPool::claim(Lane& lane, std::size_t count) {
  const std::size_t span = kDefaultBurst * lanes_.size();
  std::size_t begin = cursor_.load();
  while (begin < count) {
    const std::size_t width =
        std::min(kDefaultBurst, (count - begin + span - 1) / span);
    if (!cursor_.compare_exchange_weak(begin, begin + width)) continue;
    for (std::size_t i = begin; i < begin + width; ++i) {
      // The cursor only grows, so every later claim is above a failure too.
      if (i > failed_.load()) return;
      try {
        lane.task(i);
      } catch (...) {
        lane.error = std::current_exception();
        lane.failed_at = i;
        std::size_t low = failed_.load();
        while (i < low && !failed_.compare_exchange_weak(low, i)) {
        }
        return;
      }
    }
    begin = cursor_.load();
  }
}

void BurstPool::run(std::size_t count) {
  if (count == 0) return;
  if (poison_ != nullptr) std::rethrow_exception(poison_);
  {
    std::lock_guard<std::mutex> l(m_);
    cursor_ = 0;
    failed_ = count;
    count_ = count;
    pending_ = lanes_.size() - 1;
    ++generation_;
  }
  wake_.notify_all();
  claim(lanes_[0], count);
  {
    std::unique_lock<std::mutex> l(m_);
    idle_.wait(l, [this] { return pending_ == 0; });
  }

  // The lowest failing index wins, whichever lane ran it; every lane's
  // error is cleared so the pool stays usable.
  std::exception_ptr first;
  std::size_t first_at = count;
  for (Lane& lane : lanes_) {
    if (lane.error != nullptr && lane.failed_at < first_at) {
      first = lane.error;
      first_at = lane.failed_at;
    }
    lane.error = nullptr;
  }
  if (first != nullptr) std::rethrow_exception(first);
}

}  // namespace ftspan
