#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace ftbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::uint64_t Trace::begin(const char* name, std::uint64_t parent,
                           std::uint64_t request) {
  if (!enabled_) return 0;
  const std::int64_t t = ns(Clock::now());
  const std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.start_ns = t;
  s.end_ns = -1;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.request = request;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Trace::end(std::uint64_t id) {
  if (!enabled_ || id == 0) return;
  const std::int64_t t = ns(Clock::now());
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = t;
}

std::uint64_t Trace::record(const char* name, Clock::time_point start,
                            Clock::time_point end, std::uint64_t parent,
                            std::uint64_t request) {
  if (!enabled_) return 0;
  const std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.start_ns = ns(start);
  s.end_ns = ns(end);
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.request = request;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::size_t Trace::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Trace::self_times() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                          std::int64_t>>>
      children;
  for (const Span& s : spans_)
    if (s.parent != 0 && s.end_ns >= 0)
      children[s.parent].emplace_back(s.start_ns, s.end_ns);

  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    if (s.end_ns < 0) continue;
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Children may run in parallel (conversion lanes), so subtract the
      // union of their intervals, clipped to the parent.
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = -1, cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

bool Trace::write_json(const std::string& path) const {
  const auto self = self_times();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(f, "{\"spans\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n {\"id\": %llu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %llu, \"request\": %llu}",
                   i ? "," : "", static_cast<unsigned long long>(s.id),
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
  }
  std::fprintf(f, "\n], \"self_s\": {");
  bool first = true;
  for (const auto& [name, sec] : self) {
    std::fprintf(f, "%s\"%s\": %.9g", first ? "" : ", ", name.c_str(), sec);
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace ftbench
