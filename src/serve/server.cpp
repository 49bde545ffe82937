#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <new>
#include <stdexcept>

#include "runner/scenario.hpp"  // format_double: shortest round-trip doubles
#include "serve/http.hpp"
#include "serve/net.hpp"
#include "util/mem.hpp"

namespace ftspan::serve {

using runner::format_double;

namespace {

constexpr std::size_t kNoQuery = static_cast<std::size_t>(-1);

using Clock = std::chrono::steady_clock;

std::int64_t to_ms(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             t.time_since_epoch())
      .count();
}

/// Strict decimal vertex id in [0, n).
bool parse_vertex(std::string_view s, std::size_t n, Vertex& out) {
  if (s.empty() || s.size() > 10) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (v >= n) return false;
  out = static_cast<Vertex>(v);
  return true;
}

/// The avoid grammar: comma-separated faults, `7` a vertex, `3-5` an edge.
bool parse_avoid(std::string_view list, std::size_t n, ServeQuery& q) {
  while (!list.empty()) {
    const std::size_t comma = list.find(',');
    const std::string_view item =
        comma == std::string_view::npos ? list : list.substr(0, comma);
    list.remove_prefix(comma == std::string_view::npos ? list.size()
                                                       : comma + 1);
    if (item.empty()) return false;
    const std::size_t dash = item.find('-');
    if (dash == std::string_view::npos) {
      Vertex v;
      if (!parse_vertex(item, n, v)) return false;
      q.avoid_vertices.push_back(v);
    } else {
      Vertex u, v;
      if (!parse_vertex(item.substr(0, dash), n, u) ||
          !parse_vertex(item.substr(dash + 1), n, v) || u == v)
        return false;
      q.avoid_edges.emplace_back(u, v);
    }
  }
  return true;
}

std::string json_error(std::string_view message) {
  std::string out = "{\"error\": \"";
  out += message;  // messages are fixed strings, nothing to escape
  out += "\"}";
  return out;
}

/// Escapes a string of unknown provenance (reload errors, file paths) for
/// embedding in a JSON string literal.
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char hex[] = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xf];
          out += hex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_weight(std::string& out, Weight w) {
  if (w >= kInfiniteWeight)
    out += "null";
  else
    out += format_double(w);
}

}  // namespace

/// One client connection's state machine.
struct ServeDaemon::Conn {
  int fd = -1;
  std::string in;   ///< unparsed received bytes
  std::string out;  ///< response bytes awaiting the socket
  bool close_after_flush = false;
  bool broken = false;  ///< peer closed / protocol error: no further parsing
  Clock::time_point last_active;
  std::int64_t in_arrival_ms = 0;  ///< when `in` went empty -> nonempty
};

ServeDaemon::ServeDaemon(std::shared_ptr<EpochManager> epochs,
                         const ServeOptions& options)
    : epochs_(std::move(epochs)), options_(options) {
  if (options_.max_pipeline == 0) options_.max_pipeline = 1;
  if (options_.max_pending == 0) options_.max_pending = 1;
}

ServeDaemon::ServeDaemon(QueryEngine& engine, const ServeOptions& options)
    : ServeDaemon(EpochManager::fixed(engine), options) {}

ServeDaemon::~ServeDaemon() {
  for (auto& c : conns_)
    if (c->fd >= 0) ::close(c->fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_[0] >= 0) ::close(wake_fd_[0]);
  if (wake_fd_[1] >= 0) ::close(wake_fd_[1]);
}

void ServeDaemon::listen() {
  net::ignore_sigpipe();
  if (::pipe(wake_fd_) != 0)
    throw std::runtime_error("serve: pipe() failed");
  net::set_nonblocking(wake_fd_[0]);
  net::set_nonblocking(wake_fd_[1]);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("serve: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("serve: bad host '" + options_.host + "'");
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0)
    throw std::runtime_error("serve: bind to " + options_.host + ":" +
                             std::to_string(options_.port) + " failed: " +
                             std::strerror(errno));
  if (::listen(listen_fd_, 64) != 0)
    throw std::runtime_error("serve: listen() failed");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  net::set_nonblocking(listen_fd_);
}

void ServeDaemon::stop() {
  const char c = 'S';
  // Async-signal-safe: one write to the (nonblocking) self-pipe.
  [[maybe_unused]] const ssize_t r = ::write(wake_fd_[1], &c, 1);
}

void ServeDaemon::trigger_reload() {
  const char c = 'R';
  [[maybe_unused]] const ssize_t r = ::write(wake_fd_[1], &c, 1);
}

void ServeDaemon::drain_wake_pipe(bool& stop_requested) {
  char buf[64];
  for (;;) {
    const ssize_t n = ::read(wake_fd_[0], buf, sizeof(buf));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // EAGAIN: drained
    }
    for (ssize_t i = 0; i < n; ++i) {
      if (buf[i] == 'S') stop_requested = true;
      if (buf[i] == 'R' && epochs_->request_reload())
        ++stats_.reload_requests;
    }
  }
}

void ServeDaemon::accept_new() {
  for (;;) {
    const int fd = net::accept_retry(listen_fd_);
    if (fd < 0) return;  // EAGAIN or transient error: done for this round
    ++stats_.connections;
    if (conns_.size() >= options_.max_connections) {
      const std::string resp = http_response(
          503, "application/json", json_error("connection limit reached"),
          false, "Retry-After: 1\r\n");
      [[maybe_unused]] const ssize_t r =
          net::send_retry(fd, resp.data(), resp.size());
      ::close(fd);
      ++stats_.shed;
      continue;
    }
    net::setup_connection(fd);
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->last_active = Clock::now();
    conns_.push_back(std::move(conn));
  }
}

void ServeDaemon::read_into(Conn& conn) {
  char buf[4096];
  for (;;) {
    const ssize_t n = net::recv_retry(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      if (conn.in.empty()) conn.in_arrival_ms = now_ms_;
      conn.in.append(buf, static_cast<std::size_t>(n));
      conn.last_active = Clock::now();
      // A peer streaming far past the request limit gets cut off here; the
      // parser will report kTooLarge on what already arrived.
      if (conn.in.size() > options_.max_request_bytes + sizeof(buf)) return;
      continue;
    }
    if (n == 0) {
      conn.broken = true;  // orderly EOF
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    conn.broken = true;
    return;
  }
}

void ServeDaemon::handle_admin_reload(const HttpRequest& req,
                                      Action& action) {
  if (!epochs_->reloadable()) {
    action.response = http_response(
        503, "application/json",
        json_error("this daemon has no reload builder"), action.keep_alive);
    ++stats_.bad_requests;
    return;
  }
  if (epochs_->request_reload(req.param("path"))) {
    ++stats_.reload_requests;
    const EpochManager::Status s = epochs_->status();
    action.response = http_response(
        202, "application/json",
        "{\"ok\": true, \"epoch\": " + std::to_string(s.epoch) +
            ", \"status\": \"reloading\"}",
        action.keep_alive);
    ++stats_.requests;
  } else {
    action.response =
        http_response(409, "application/json",
                      json_error("reload already in progress"),
                      action.keep_alive);
    ++stats_.bad_requests;
  }
}

void ServeDaemon::process(std::size_t ci, QueryEngine& engine) {
  Conn& conn = *conns_[ci];
  const std::size_t n = engine.num_vertices();
  std::size_t offset = 0;
  std::size_t parsed_this_round = 0;
  while (!conn.close_after_flush) {
    if (parsed_this_round >= options_.max_pipeline) {
      // Pipelining cap: the rest of the buffer waits for the next round.
      // poll() won't fire for bytes that already arrived, so the loop must
      // not block while deferred work is buffered.
      if (offset < conn.in.size()) deferred_ = true;
      break;
    }
    HttpRequest req;
    std::size_t consumed = 0;
    const HttpParseStatus status =
        parse_http_request(std::string_view(conn.in).substr(offset),
                           options_.max_request_bytes, req, consumed);
    if (status == HttpParseStatus::kNeedMore) break;

    Action action;
    action.conn = ci;
    if (status == HttpParseStatus::kBad ||
        status == HttpParseStatus::kTooLarge) {
      // Framing is lost (or the request is oversized): answer and close.
      const int code = status == HttpParseStatus::kBad ? 400 : 413;
      action.keep_alive = false;
      action.response = http_response(
          code, "application/json",
          json_error(code == 400 ? "malformed request" : "request too large"),
          false);
      conn.close_after_flush = true;
      ++stats_.bad_requests;
      actions_.push_back(std::move(action));
      break;
    }

    offset += consumed;
    ++parsed_this_round;
    action.keep_alive = req.keep_alive;
    if (!req.keep_alive) conn.close_after_flush = true;

    // The chaos seam's allocation-failure point sits at request admission:
    // everything after this allocates, so a forced bad_alloc here exercises
    // the only place the daemon can still answer cleanly.
    try {
      net::chaos_alloc_point();
    } catch (const std::bad_alloc&) {
      action.response = http_response(
          503, "application/json",
          json_error("temporarily out of memory"), action.keep_alive,
          "Retry-After: 1\r\n");
      ++stats_.internal_errors;
      actions_.push_back(std::move(action));
      continue;
    }

    if (req.path == "/admin/reload") {
      if (req.method != "POST") {
        action.response = http_response(
            405, "application/json",
            json_error("reload is POST-only"), action.keep_alive);
        ++stats_.bad_requests;
      } else {
        handle_admin_reload(req, action);
      }
    } else if (req.method != "GET") {
      action.response = http_response(405, "application/json",
                                      json_error("only GET is supported"),
                                      action.keep_alive);
      ++stats_.bad_requests;
    } else if (req.path == "/healthz") {
      action.response = http_response(200, "application/json",
                                      handle_healthz(), action.keep_alive);
      ++stats_.requests;
    } else if (req.path == "/stats") {
      action.response = http_response(200, "application/json",
                                      handle_stats(engine, uptime_seconds_),
                                      action.keep_alive);
      ++stats_.requests;
    } else if (req.path == "/distance" || req.path == "/stretch") {
      ServeQuery q;
      q.want_base = req.path == "/stretch";
      const bool ok = parse_vertex(req.param("s"), n, q.s) &&
                      parse_vertex(req.param("t"), n, q.t) &&
                      parse_avoid(req.param("avoid"), n, q);
      if (!ok) {
        action.response = http_response(
            400, "application/json",
            json_error("s and t must be vertex ids in [0, n); avoid is a "
                       "comma-separated list of vertices (7) and edges (3-5)"),
            action.keep_alive);
        ++stats_.bad_requests;
      } else if (options_.deadline_ms > 0 &&
                 now_ms_ - conn.in_arrival_ms > options_.deadline_ms) {
        // Already stale at parse time (a trickled request, or work deferred
        // behind long rounds): shed instead of computing a dead answer.
        action.response = http_response(
            503, "application/json", json_error("deadline exceeded"),
            action.keep_alive, "Retry-After: 1\r\n");
        ++stats_.deadline_hits;
      } else if (batch_queries_.size() >= options_.max_pending) {
        // Pending-request budget: bound one round's batch. The connection
        // stays open; the client is told when to come back.
        action.response = http_response(
            503, "application/json", json_error("server overloaded"),
            action.keep_alive, "Retry-After: 1\r\n");
        ++stats_.shed;
      } else {
        q.canonicalize();
        action.query_idx = batch_queries_.size();
        action.want_stretch = q.want_base;
        batch_queries_.push_back(std::move(q));
        batch_arrival_ms_.push_back(conn.in_arrival_ms);
      }
    } else {
      action.response = http_response(404, "application/json",
                                      json_error("no such endpoint"),
                                      action.keep_alive);
      ++stats_.bad_requests;
    }
    actions_.push_back(std::move(action));
  }
  conn.in.erase(0, offset);
}

std::string ServeDaemon::handle_healthz() const {
  const EpochManager::Status s = epochs_->status();
  std::string out = "{\"ok\": true, \"epoch\": " + std::to_string(s.epoch);
  out += ", \"source\": \"" + json_escape(s.source) + "\"";
  out += ", \"reload\": {\"supported\": ";
  out += epochs_->reloadable() ? "true" : "false";
  out += ", \"ok\": " + std::to_string(s.ok);
  out += ", \"failed\": " + std::to_string(s.failed);
  out += ", \"in_progress\": ";
  out += s.in_progress ? "true" : "false";
  out += ", \"last_error\": \"" + json_escape(s.last_error) + "\"}}";
  return out;
}

std::string ServeDaemon::handle_stats(const QueryEngine& engine,
                                      double uptime_seconds) const {
  const auto& cache = engine.cache_stats();
  const std::uint64_t lookups = cache.hits + cache.misses;
  const EpochManager::Status es = epochs_->status();
  std::string out = "{\"uptime_seconds\": ";
  out += format_double(uptime_seconds);
  out += ", \"requests\": " + std::to_string(stats_.requests);
  out += ", \"bad_requests\": " + std::to_string(stats_.bad_requests);
  out += ", \"connections\": " + std::to_string(stats_.connections);
  out += ", \"shed\": " + std::to_string(stats_.shed);
  out += ", \"deadline_hits\": " + std::to_string(stats_.deadline_hits);
  out += ", \"internal_errors\": " + std::to_string(stats_.internal_errors);
  out += ", \"qps\": ";
  out += format_double(uptime_seconds > 0
                           ? static_cast<double>(stats_.requests) /
                                 uptime_seconds
                           : 0);
  out += ", \"queries\": " + std::to_string(engine.queries_answered());
  out += ", \"cache\": {\"hits\": " + std::to_string(cache.hits);
  out += ", \"misses\": " + std::to_string(cache.misses);
  out += ", \"hit_rate\": ";
  out += format_double(lookups == 0 ? 0
                                    : static_cast<double>(cache.hits) /
                                          static_cast<double>(lookups));
  out += "}, \"epoch\": " + std::to_string(es.epoch);
  out += ", \"reloads\": {\"requested\": " +
         std::to_string(stats_.reload_requests);
  out += ", \"ok\": " + std::to_string(es.ok);
  out += ", \"failed\": " + std::to_string(es.failed);
  out += "}, \"chaos_faults\": " +
         std::to_string(net::chaos_faults_injected());
  out += ", \"graph\": {\"n\": " + std::to_string(engine.num_vertices());
  out += ", \"m\": " + std::to_string(engine.base().num_edges());
  out += ", \"spanner_edges\": " +
         std::to_string(engine.spanner().num_edges());
  out += ", \"k\": " + format_double(engine.stretch_bound());
  out += "}, \"peak_rss_bytes\": " + std::to_string(peak_rss_bytes());
  out += "}";
  return out;
}

void ServeDaemon::flush(Conn& conn) {
  while (!conn.out.empty()) {
    const ssize_t n = net::send_retry(conn.fd, conn.out.data(),
                                      conn.out.size());
    if (n > 0) {
      conn.out.erase(0, static_cast<std::size_t>(n));
      conn.last_active = Clock::now();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    conn.broken = true;
    return;
  }
}

void ServeDaemon::run() {
  const Clock::time_point start = Clock::now();
  std::vector<pollfd> fds;
  std::vector<std::size_t> conn_of;  ///< conn index of fds[i] for i >= 2

  for (;;) {
    fds.clear();
    conn_of.clear();
    fds.push_back({wake_fd_[0], POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      short events = POLLIN;
      if (!conns_[i]->out.empty()) events |= POLLOUT;
      fds.push_back({conns_[i]->fd, events, 0});
      conn_of.push_back(i);
    }

    // Deferred work (a conn over its pipelining cap) is already buffered in
    // user space — poll() would never wake for it, so don't block.
    int timeout = options_.idle_timeout_ms > 0
                      ? std::min(options_.idle_timeout_ms, 1000)
                      : -1;
    if (deferred_) timeout = 0;
    deferred_ = false;
    if (net::poll_retry(fds.data(), static_cast<nfds_t>(fds.size()),
                        timeout) < 0)
      break;
    const Clock::time_point now = Clock::now();
    uptime_seconds_ = std::chrono::duration<double>(now - start).count();
    now_ms_ = to_ms(now);

    if ((fds[0].revents & POLLIN) != 0) {
      bool stop_requested = false;
      drain_wake_pipe(stop_requested);
      if (stop_requested) break;
    }
    if ((fds[1].revents & POLLIN) != 0) accept_new();

    for (std::size_t i = 0; i < conn_of.size(); ++i)
      if ((fds[i + 2].revents & (POLLIN | POLLHUP | POLLERR)) != 0)
        read_into(*conns_[conn_of[i]]);

    // Pin this round's epoch: every request parsed below answers on it,
    // even if a reload publishes a newer one mid-round. The shared_ptr
    // keeps the old engine alive until the round (and any older rounds'
    // responses) are done with it.
    const std::shared_ptr<EngineEpoch> epoch = epochs_->current();
    QueryEngine& engine = *epoch->engine;

    // Parse every connection's buffered bytes, batch the query endpoints
    // through the engine once, then resolve responses in parse order.
    batch_queries_.clear();
    batch_arrival_ms_.clear();
    actions_.clear();
    for (std::size_t i = 0; i < conns_.size(); ++i)
      if (!conns_[i]->in.empty() && !conns_[i]->broken) process(i, engine);
    bool batch_failed = false;
    if (!batch_queries_.empty()) {
      try {
        engine.answer_batch(batch_queries_, batch_answers_);
      } catch (const std::exception&) {
        // Compute failure (allocation pressure, injected chaos): every
        // query in the round sheds; the connections live on.
        batch_failed = true;
      }
    }
    const std::int64_t resolve_ms = to_ms(Clock::now());
    for (Action& action : actions_) {
      Conn& conn = *conns_[action.conn];
      if (action.query_idx == kNoQuery) {
        conn.out += action.response;
        conn.last_active = now;
        continue;
      }
      if (batch_failed) {
        conn.out += http_response(503, "application/json",
                                  json_error("query computation failed"),
                                  action.keep_alive, "Retry-After: 1\r\n");
        conn.last_active = now;
        ++stats_.internal_errors;
        continue;
      }
      if (options_.deadline_ms > 0 &&
          resolve_ms - batch_arrival_ms_[action.query_idx] >
              options_.deadline_ms) {
        // The answer exists but arrived past the deadline: a stuck or
        // overlong computation becomes a shed, not a stalled connection.
        conn.out += http_response(503, "application/json",
                                  json_error("deadline exceeded"),
                                  action.keep_alive, "Retry-After: 1\r\n");
        conn.last_active = now;
        ++stats_.deadline_hits;
        continue;
      }
      const ServeQuery& q = batch_queries_[action.query_idx];
      const ServeAnswer& a = batch_answers_[action.query_idx];
      std::string body = "{\"s\": " + std::to_string(q.s) +
                         ", \"t\": " + std::to_string(q.t);
      if (action.want_stretch) {
        body += ", \"spanner_distance\": ";
        append_weight(body, a.dh);
        body += ", \"base_distance\": ";
        append_weight(body, a.dg);
        body += ", \"stretch\": ";
        if (a.dh >= kInfiniteWeight || a.dg >= kInfiniteWeight)
          body += "null";
        else
          body += format_double(a.dg == 0 ? 1.0 : a.dh / a.dg);
        body += ", \"bound\": " + format_double(engine.stretch_bound());
      } else {
        body += ", \"distance\": ";
        append_weight(body, a.dh);
      }
      body += ", \"reachable\": ";
      body += a.dh < kInfiniteWeight ? "true" : "false";
      body += ", \"from_cache\": ";
      body += a.from_cache ? "true" : "false";
      body += "}";
      conn.out +=
          http_response(200, "application/json", body, action.keep_alive);
      // Completed request: the idle clock restarts now, so a well-behaved
      // keep-alive client is never 408'd for think time shorter than the
      // timeout.
      conn.last_active = now;
      ++stats_.requests;
    }

    for (auto& conn : conns_) {
      if (!conn->broken && !conn->out.empty()) flush(*conn);
      if (!conn->broken && options_.idle_timeout_ms > 0 &&
          conn->out.empty() && !conn->close_after_flush &&
          now - conn->last_active >
              std::chrono::milliseconds(options_.idle_timeout_ms)) {
        conn->out += http_response(408, "application/json",
                                   json_error("idle timeout"), false);
        conn->close_after_flush = true;
        flush(*conn);
      }
      if (conn->broken || (conn->close_after_flush && conn->out.empty())) {
        ::close(conn->fd);
        conn->fd = -1;
      }
    }
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const std::unique_ptr<Conn>& c) {
                                  return c->fd < 0;
                                }),
                 conns_.end());
  }

  for (auto& conn : conns_) ::close(conn->fd);
  conns_.clear();
}

}  // namespace ftspan::serve
