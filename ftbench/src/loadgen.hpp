// Open-loop HTTP load generator for the serve workloads.
//
// One thread drives `conns` keep-alive loopback connections without
// blocking. Request j of a phase is *due* at t0 + j / rate, whatever the
// daemon is doing — independent users, not callers waiting on replies — and
// goes to connection j % conns, where up to `max_inflight` requests may be
// pipelined. Latency is timed from when a request was due, so a stall counts
// against every request queued behind it; how late the generator itself
// sent each request is reported separately as lag.
//
// Every request ends in exactly one of: 200, another status, a connection
// reset, or a timeout (still unanswered `timeout_s` after it was due). The
// last three count as failures against the attempted total.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "trace.hpp"

namespace ftbench {

struct LoadOptions {
  std::uint16_t port = 0;
  std::size_t conns = 8;
  std::size_t max_inflight = 32;  ///< pipelined requests per connection
  double timeout_s = 2.0;
  /// Ack every read at once (TCP_QUICKACK) instead of leaving ACKs to the
  /// kernel's delayed-ACK timer; see README.md for why this is the default.
  bool quickack = true;
};

struct PhaseResult {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;        ///< status 200
  std::uint64_t non200 = 0;    ///< any other status (503 shed, 4xx, ...)
  std::uint64_t resets = 0;    ///< connection closed or reset under a request
  std::uint64_t timeouts = 0;
  std::vector<double> latency_ms;  ///< per 200, from due time, by due order
  std::vector<double> tail_latency_ms;  ///< 200s due in the last quarter
  std::vector<double> lag_ms;       ///< send time minus due time, per send
  double seconds = 0;  ///< first due time to last completion

  std::uint64_t failed() const { return non200 + resets + timeouts; }
};

class LoadGen {
 public:
  LoadGen(const LoadOptions& options, Trace& trace);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Called with (stream index, body) for every 200 response.
  using OnAnswer = std::function<void(std::size_t, std::string_view)>;

  /// Offers stream.size() requests at `rate` per second; request j sends
  /// requests[stream[j]] (complete HTTP/1.1 request bytes). Returns after
  /// every request has completed, failed or timed out.
  PhaseResult run(const std::vector<std::string>& requests,
                  const std::vector<std::uint32_t>& stream, double rate,
                  const OnAnswer& on_answer);

 private:
  struct Conn;
  bool connect(Conn& c);

  LoadOptions options_;
  Trace& trace_;
  std::vector<Conn> conns_;
  std::uint64_t next_request_id_ = 1;
};

/// One blocking GET over a fresh loopback connection; returns the body, or
/// an empty string on failure.
std::string http_get(std::uint16_t port, const std::string& target);

}  // namespace ftbench
