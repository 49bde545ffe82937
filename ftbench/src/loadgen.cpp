#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>

namespace ftbench {

struct LoadGen::Conn {
  struct Inflight {
    std::size_t j;
    Clock::time_point sent;
  };
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::size_t in_off = 0;
  std::deque<std::size_t> waiting;  ///< due, not yet sent
  std::deque<Inflight> inflight;    ///< sent, awaiting a response (in order)

  void close_fd() {
    if (fd >= 0) ::close(fd);
    fd = -1;
    out.clear();
    out_off = 0;
    in.clear();
    in_off = 0;
  }
};

namespace {

int open_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Parses one response at buf[off..]. Returns bytes consumed (0 = need
/// more) and fills status/body.
std::size_t parse_response(const std::string& buf, std::size_t off,
                           int& status, std::string_view& body) {
  const std::size_t he = buf.find("\r\n\r\n", off);
  if (he == std::string::npos) return 0;
  std::size_t cl = 0;
  const std::size_t p = buf.find("Content-Length: ", off);
  if (p != std::string::npos && p < he)
    for (std::size_t i = p + 16; i < he && buf[i] >= '0' && buf[i] <= '9'; ++i)
      cl = cl * 10 + static_cast<std::size_t>(buf[i] - '0');
  const std::size_t total = he + 4 + cl - off;
  if (buf.size() - off < total) return 0;
  status = 0;
  const std::size_t sp = buf.find(' ', off);
  for (std::size_t i = sp + 1; sp < he && i < he && buf[i] >= '0' &&
                               buf[i] <= '9';
       ++i)
    status = status * 10 + (buf[i] - '0');
  body = std::string_view(buf).substr(he + 4, cl);
  return total;
}

/// How long before a send is due the generator stops sleeping.
constexpr std::int64_t kSpinNs = 1'000'000;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

LoadGen::LoadGen(const LoadOptions& options, Trace& trace)
    : options_(options), trace_(trace), conns_(options.conns) {}

LoadGen::~LoadGen() {
  for (Conn& c : conns_) c.close_fd();
}

bool LoadGen::connect(Conn& c) {
  c.close_fd();
  c.fd = open_loopback(options_.port);
  if (c.fd < 0) return false;
  ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL, 0) | O_NONBLOCK);
  return true;
}

PhaseResult LoadGen::run(const std::vector<std::string>& requests,
                         const std::vector<std::uint32_t>& stream,
                         double rate, const OnAnswer& on_answer) {
  PhaseResult res;
  const std::size_t count = stream.size();
  res.attempted = count;
  if (count == 0) return res;
  std::vector<double> latency(count, -1);
  res.lag_ms.reserve(count);

  const std::size_t nc = conns_.size();
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto due = [&](std::size_t j) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(j) /
                                                  rate));
  };
  const auto timeout = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(options_.timeout_s));
  const std::uint64_t first_id = next_request_id_;
  next_request_id_ += count;

  std::size_t next = 0, done = 0;
  Clock::time_point last_done = t0;
  std::vector<pollfd> pfds(nc);

  const auto fail_conn = [&](Conn& c) {
    // Everything sent on a dead connection is lost; what was still waiting
    // goes out on the reconnected socket.
    res.resets += c.inflight.size();
    done += c.inflight.size();
    c.inflight.clear();
    c.close_fd();
  };

  while (done < count) {
    auto now = Clock::now();
    while (next < count && due(next) <= now) {
      conns_[next % nc].waiting.push_back(next);
      ++next;
    }

    for (Conn& c : conns_) {
      // Timeouts: the oldest request on a connection bounds the rest.
      while (!c.waiting.empty() && due(c.waiting.front()) + timeout < now) {
        c.waiting.pop_front();
        ++res.timeouts;
        ++done;
      }
      if (!c.inflight.empty() && due(c.inflight.front().j) + timeout < now) {
        res.timeouts += c.inflight.size();
        done += c.inflight.size();
        c.inflight.clear();
        c.close_fd();
      }
      if (c.waiting.empty()) continue;
      if (c.fd < 0 && !connect(c)) continue;  // retried next loop
      while (!c.waiting.empty() && c.inflight.size() < options_.max_inflight) {
        const std::size_t j = c.waiting.front();
        c.waiting.pop_front();
        c.out += requests[stream[j]];
        c.inflight.push_back({j, now});
        res.lag_ms.push_back(ms_between(due(j), now));
      }
    }

    for (Conn& c : conns_) {
      while (c.fd >= 0 && c.out_off < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                                 c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (n > 0) {
          c.out_off += static_cast<std::size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          fail_conn(c);
        }
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }

    // Wait for a response until the next send is due (at most 5 ms). A
    // sleeping thread can wake milliseconds late, so the last stretch
    // before a send is polled without sleeping.
    now = Clock::now();
    std::int64_t wait_ns = 5'000'000;
    if (next < count)
      wait_ns = std::min<std::int64_t>(
          wait_ns, std::chrono::duration_cast<std::chrono::nanoseconds>(
                       due(next) - now)
                           .count() -
                       kSpinNs);
    wait_ns = std::max<std::int64_t>(wait_ns, 0);
    for (std::size_t i = 0; i < nc; ++i) {
      pfds[i].fd = conns_[i].fd;
      pfds[i].events = POLLIN;
      if (!conns_[i].out.empty()) pfds[i].events |= POLLOUT;
      pfds[i].revents = 0;
    }
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(pfds.data(), nc, &ts, nullptr) <= 0) continue;

    for (std::size_t i = 0; i < nc; ++i) {
      Conn& c = conns_[i];
      if (c.fd < 0 || !(pfds[i].revents & (POLLIN | POLLERR | POLLHUP)))
        continue;
      char tmp[65536];
      bool closed = false;
      for (;;) {
        const ssize_t n = ::recv(c.fd, tmp, sizeof(tmp), 0);
        if (n > 0) {
          c.in.append(tmp, static_cast<std::size_t>(n));
          // Re-armed after every read: the kernel leaves quick-ack mode on
          // its own.
          if (options_.quickack) {
            const int one = 1;
            ::setsockopt(c.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
          }
          if (static_cast<std::size_t>(n) < sizeof(tmp)) break;
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          closed = !(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
          break;
        }
      }
      const auto got = Clock::now();
      int status = 0;
      std::string_view body;
      std::size_t used;
      while (!c.inflight.empty() &&
             (used = parse_response(c.in, c.in_off, status, body)) > 0) {
        const auto [j, sent] = c.inflight.front();
        c.inflight.pop_front();
        c.in_off += used;
        ++done;
        last_done = got;
        if (status == 200) {
          ++res.ok;
          latency[j] = ms_between(due(j), got);
          if (on_answer) on_answer(j, body);
        } else {
          ++res.non200;
        }
        if (trace_.enabled()) {
          const std::uint64_t rid = first_id + j;
          const std::uint64_t span =
              trace_.record("serve.request", due(j), got, 0, rid);
          trace_.record("loadgen.wait", due(j), sent, span, rid);
        }
      }
      if (c.in_off == c.in.size()) {
        c.in.clear();
        c.in_off = 0;
      } else if (c.in_off > sizeof(tmp)) {
        c.in.erase(0, c.in_off);
        c.in_off = 0;
      }
      if (closed) fail_conn(c);
    }
  }

  res.seconds = std::chrono::duration<double>(last_done - t0).count();
  res.latency_ms.reserve(res.ok);
  for (std::size_t j = 0; j < count; ++j) {
    if (latency[j] < 0) continue;
    res.latency_ms.push_back(latency[j]);
    if (j >= count - count / 4) res.tail_latency_ms.push_back(latency[j]);
  }
  return res;
}

std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = open_loopback(port);
  if (fd < 0) return {};
  const std::string req =
      "GET " + target + " HTTP/1.1\r\nHost: l\r\nConnection: close\r\n\r\n";
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t n =
        ::send(fd, req.data() + off, req.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return {};
    }
    off += static_cast<std::size_t>(n);
  }
  std::string buf;
  char tmp[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
    if (n <= 0) break;
    buf.append(tmp, static_cast<std::size_t>(n));
  }
  ::close(fd);
  int status = 0;
  std::string_view body;
  if (parse_response(buf, 0, status, body) == 0 || status != 200) return {};
  return std::string(body);
}

}  // namespace ftbench
