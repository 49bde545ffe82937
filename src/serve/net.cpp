#include "serve/net.hpp"

#include <csignal>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <new>
#include <string>

#include "util/rng.hpp"

namespace ftspan::serve::net {

namespace {

#ifdef FTSPAN_CHAOS_SEAM

struct ChaosConfig {
  bool enabled = false;
  std::uint64_t seed = 1;
  double short_io = 0;  ///< P(clamp a recv/send to one byte)
  double alloc = 0;     ///< P(chaos_alloc_point throws)
};

ChaosConfig parse_chaos_env() {
  ChaosConfig cfg;
  const char* env = std::getenv("FTSPAN_CHAOS");
  if (env == nullptr || *env == '\0') return cfg;
  cfg.enabled = true;
  std::string s(env);
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string item = s.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "seed")
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "short_io")
      cfg.short_io = std::strtod(value.c_str(), nullptr);
    else if (key == "alloc")
      cfg.alloc = std::strtod(value.c_str(), nullptr);
  }
  return cfg;
}

const ChaosConfig& chaos_config() {
  static const ChaosConfig cfg = parse_chaos_env();
  return cfg;
}

std::atomic<std::uint64_t> g_chaos_counter{0};
std::atomic<std::uint64_t> g_chaos_injected{0};

/// The next chaos decision: a uniform double in [0, 1) derived from
/// hash(seed, event counter) — deterministic per seed, independent of time.
double chaos_roll() {
  const std::uint64_t n =
      g_chaos_counter.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t h = hash_combine(chaos_config().seed, n);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool chaos_short_io() {
  const ChaosConfig& cfg = chaos_config();
  if (!cfg.enabled || cfg.short_io <= 0) return false;
  if (chaos_roll() >= cfg.short_io) return false;
  g_chaos_injected.fetch_add(1, std::memory_order_relaxed);
  return true;
}

#endif  // FTSPAN_CHAOS_SEAM

}  // namespace

void ignore_sigpipe() {
  struct sigaction sa {};
  sa.sa_handler = SIG_IGN;
  ::sigaction(SIGPIPE, &sa, nullptr);
}

ssize_t recv_retry(int fd, void* buf, std::size_t len) {
#ifdef FTSPAN_CHAOS_SEAM
  if (len > 1 && chaos_short_io()) len = 1;
#endif
  for (;;) {
    const ssize_t n = ::recv(fd, buf, len, 0);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

ssize_t send_retry(int fd, const void* buf, std::size_t len) {
#ifdef FTSPAN_CHAOS_SEAM
  if (len > 1 && chaos_short_io()) len = 1;
#endif
  for (;;) {
    const ssize_t n = ::send(fd, buf, len, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

int accept_retry(int fd) {
  for (;;) {
    const int cfd = ::accept(fd, nullptr, nullptr);
    if (cfd < 0 && errno == EINTR) continue;
    return cfd;
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void setup_connection(int fd) {
  set_nonblocking(fd);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

int poll_retry(pollfd* fds, nfds_t n, int timeout_ms) {
  for (;;) {
    const int r = ::poll(fds, n, timeout_ms);
    if (r < 0 && errno == EINTR) return 0;
    return r;
  }
}

bool chaos_enabled() {
#ifdef FTSPAN_CHAOS_SEAM
  return chaos_config().enabled;
#else
  return false;
#endif
}

void chaos_alloc_point() {
#ifdef FTSPAN_CHAOS_SEAM
  const ChaosConfig& cfg = chaos_config();
  if (!cfg.enabled || cfg.alloc <= 0) return;
  if (chaos_roll() >= cfg.alloc) return;
  g_chaos_injected.fetch_add(1, std::memory_order_relaxed);
  throw std::bad_alloc();
#endif
}

std::uint64_t chaos_faults_injected() {
#ifdef FTSPAN_CHAOS_SEAM
  return g_chaos_injected.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

}  // namespace ftspan::serve::net
