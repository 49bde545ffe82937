#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "ftspanner/conversion.hpp"
#include "graph/csr.hpp"
#include "graph/engine_policy.hpp"
#include "graph/sp_engine.hpp"
#include "loadgen.hpp"
#include "pipeline/burst_pipeline.hpp"
#include "pins.hpp"
#include "runner/runner.hpp"
#include "runner/workloads.hpp"
#include "serve/http.hpp"
#include "serve/query.hpp"
#include "serve/server.hpp"
#include "spanner/greedy.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"
#include "validate/stretch_oracle.hpp"

namespace ftbench {

using namespace ftspan;

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  correct = false;
  std::fprintf(stderr, "[ftbench] FAIL: %s\n", what.c_str());
}

void Report::tally(std::uint64_t n, std::uint64_t bad,
                   const std::string& what) {
  attempted += n;
  failed += bad;
  if (bad == 0) return;
  correct = false;
  std::fprintf(stderr, "[ftbench] FAIL: %s: %llu of %llu failed\n",
               what.c_str(), static_cast<unsigned long long>(bad),
               static_cast<unsigned long long>(n));
}

namespace {

// Stream tags deriving each input of a run from --seed.
constexpr std::uint64_t kConvStream = 0xc0417;
constexpr std::uint64_t kValStream = 0x7a11d;
constexpr std::uint64_t kQueryStream = 0x5e7e;

// Fixed sizes of the hot paths (the runner's defaults where it has them).
constexpr std::size_t kThreads = 4;          // conversion + validation lanes
constexpr std::size_t kRandomTrials = 40;    // check_sampled random sets
constexpr std::size_t kAdversarial = 60;     // check_sampled adversary probes
constexpr std::size_t kCacheCapacity = 1024; // QueryEngine answer cache
constexpr std::size_t kConns = 8;
constexpr std::size_t kMaxInflight = 32;     // pipelined per connection
constexpr double kP99LimitMs = 50;           // serve.p99_limited_qps limit

enum class Primary { kConvert, kValidate, kServe };

struct Spec {
  const char* name;
  const char* family;  // runner workload family
  std::size_t n;
  double p;
  double max_weight;   // integer reweight ceiling; 0 keeps family weights
  double k;
  std::size_t r;
  SpQueue queue;       // the SP queue engine=auto must resolve to
  Primary primary;
  double serve_qps;    // fixed offered rate of the latency phase
  std::size_t setup_reps;  // at least; cheap set-ups repeat for 0.3 s
};

const Spec kSpecs[] = {
    {"convert", "gnp", 400, 0.2, 1e5, 5, 2, SpQueue::kDelta, Primary::kConvert,
     3000, 5},
    {"validate", "gnp", 600, 0.2, 0, 5, 2, SpQueue::kBucket,
     Primary::kValidate, 3000, 5},
    {"serve_miss", "sensor", 3000, 0.035, 0, 3, 1, SpQueue::kHeap,
     Primary::kServe, 1000, 15},
};

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : kSpecs)
    if (name == s.name) return &s;
  return nullptr;
}

void note(const char* fmt, double a = 0, double b = 0, double c = 0) {
  std::fprintf(stderr, "[ftbench] ");
  std::fprintf(stderr, fmt, a, b, c);
  std::fprintf(stderr, "\n");
}

// ---------------------------------------------------------------------------
// Instance: graph, FT spanner, oracle.

struct Instance {
  Graph g;
  Graph h;
  std::vector<EdgeId> spanner;
  WeightProfile profile;
  SpQueue queue = SpQueue::kHeap;
  std::uint64_t conv_seed = 0, val_seed = 0, query_seed = 0;
  std::unique_ptr<StretchOracle> oracle;

  void set_spanner(std::vector<EdgeId> edges) {
    spanner = std::move(edges);
    h = g.edge_subgraph(spanner);
  }
};

std::unique_ptr<Instance> make_instance(const Spec& spec, std::uint64_t seed) {
  auto inst = std::make_unique<Instance>();
  runner::WorkloadParams wp;
  wp.n = spec.n;
  wp.p = spec.p;
  wp.seed = seed;
  wp.max_weight = spec.max_weight;
  inst->g = runner::make_workload(spec.family, wp).g;
  for (EdgeId id = 0; id < inst->g.num_edges(); ++id)
    inst->profile.observe(inst->g.edge(id).w);
  inst->queue = select_sp_queue(SpEnginePolicy::kAuto, inst->profile.integral,
                                inst->profile.max_weight);
  inst->conv_seed = hash_combine(seed, kConvStream);
  inst->val_seed = hash_combine(seed, kValStream);
  inst->query_seed = hash_combine(seed, kQueryStream);
  return inst;
}

ConversionResult convert(const Instance& inst, const Spec& spec,
                         std::size_t threads,
                         SpEnginePolicy engine = SpEnginePolicy::kAuto) {
  ConversionOptions o;
  o.threads = threads;
  o.engine = engine;
  return ft_greedy_spanner(inst.g, spec.k, spec.r, inst.conv_seed, o);
}

/// The conversion through fault_tolerant_spanner with a wrapped factory:
/// the same greedy base ft_greedy_spanner binds, with a timer (and span)
/// around every bound base-spanner call, kept per lane.
struct TracedConversion {
  ConversionResult result;
  double wall_s = 0;
  std::vector<std::vector<double>> lane_call_ms;
};

TracedConversion traced_convert(const Instance& inst, const Spec& spec,
                                std::size_t threads, Trace& trace) {
  TracedConversion out;
  const GreedyContext ctx(inst.g);
  const double k = spec.k;
  out.lane_call_ms.resize(threads);
  std::atomic<std::size_t> next_lane{0};
  const Scope conv(trace, "ftspanner.convert");
  const std::uint64_t parent = conv.id();
  const BaseSpannerFactory factory = [&]() -> BoundBaseSpanner {
    auto ws = std::make_shared<GreedyWorkspace>();
    ws->set_engine(SpEnginePolicy::kAuto);
    std::vector<double>* calls = &out.lane_call_ms.at(next_lane++);
    return [&ctx, &trace, k, ws, calls, parent](
               const VertexSet* mask, std::uint64_t) -> std::span<const EdgeId> {
      const auto t0 = Clock::now();
      const std::span<const EdgeId> edges = ws->run(ctx, k, mask);
      const auto t1 = Clock::now();
      calls->push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
      trace.record("spanner.base", t0, t1, parent);
      return edges;
    };
  };
  ConversionOptions o;
  o.threads = threads;
  const auto t0 = Clock::now();
  out.result =
      fault_tolerant_spanner(inst.g, spec.r, factory, inst.conv_seed, o);
  out.wall_s = seconds_since(t0);
  return out;
}

FtCheckResult check(const Instance& inst, const Spec& spec,
                    std::size_t threads,
                    SpEnginePolicy engine = SpEnginePolicy::kAuto) {
  FtCheckOptions o;
  o.threads = threads;
  o.engine = engine;
  return inst.oracle->check_sampled(spec.r, kRandomTrials, kAdversarial,
                                    inst.val_seed, o);
}

bool same_verdict(const FtCheckResult& a, const FtCheckResult& b) {
  return a.valid == b.valid && a.worst_stretch == b.worst_stretch &&
         a.witness_u == b.witness_u && a.witness_v == b.witness_v &&
         a.fault_sets_checked == b.fault_sets_checked &&
         a.witness_faults == b.witness_faults;
}

// ---------------------------------------------------------------------------
// Serve: query stream, in-process daemon, reference answers.

/// The load test's query mix over uniform (s, t): 60% distance, 25%
/// stretch, 15% distance avoiding one or two vertices. Every query is
/// fresh, so with n = 3000 almost none repeats within the answer cache.
class QueryStream {
 public:
  QueryStream(std::size_t n, std::uint64_t seed) : n_(n), seed_(seed) {}

  /// The next `count` query ids of the stream.
  std::vector<std::uint32_t> take(std::size_t count) {
    const std::size_t first = queries.size();
    grow(first + count);
    std::vector<std::uint32_t> ids(count);
    for (std::size_t i = 0; i < count; ++i)
      ids[i] = static_cast<std::uint32_t>(first + i);
    return ids;
  }

  std::vector<std::string> requests;       ///< HTTP bytes per query id
  std::vector<serve::ServeQuery> queries;  ///< canonical query per id

 private:
  void grow(std::size_t size) {
    while (queries.size() < size) {
      Rng rng(hash_combine(seed_, queries.size()));
      serve::ServeQuery q;
      q.s = static_cast<Vertex>(rng.uniform_index(n_));
      q.t = static_cast<Vertex>(rng.uniform_index(n_));
      const double roll = rng.uniform();
      const char* path = "/distance";
      std::string avoid;
      if (roll >= 0.60 && roll < 0.85) {
        q.want_base = true;
        path = "/stretch";
      } else if (roll >= 0.85) {
        const std::size_t faults = 1 + rng.bernoulli(0.5);
        for (std::size_t f = 0; f < faults; ++f) {
          q.avoid_vertices.push_back(static_cast<Vertex>(rng.uniform_index(n_)));
          avoid += f ? "," : "&avoid=";
          avoid += std::to_string(q.avoid_vertices.back());
        }
      }
      std::string req = "GET ";
      req += path;
      req += "?s=";
      req += std::to_string(q.s);
      req += "&t=";
      req += std::to_string(q.t);
      req += avoid;
      req += " HTTP/1.1\r\nHost: l\r\n\r\n";
      requests.push_back(std::move(req));
      q.canonicalize();
      queries.push_back(std::move(q));
    }
  }

  std::size_t n_;
  std::uint64_t seed_;
};

std::size_t serve_workers(unsigned nproc) {
  // Generator thread + poll loop + lanes stay within nproc (and within the
  // four threads the conversion and validation use).
  const std::size_t cores = std::min<std::size_t>(nproc, kThreads);
  return cores > 2 ? cores - 2 : 1;
}

/// The daemon in this process: engine + poll loop on its own thread.
class Server {
 public:
  Server(const Instance& inst, const Spec& spec, std::size_t workers)
      : engine_(inst.g, inst.spanner, spec.k, options(workers)),
        daemon_(engine_) {
    daemon_.listen();
    loop_ = std::thread([this] {
      try {
        daemon_.run();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[ftbench] daemon loop failed: %s\n", e.what());
        failed_ = true;
      }
    });
  }
  ~Server() {
    daemon_.stop();
    loop_.join();
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::uint16_t port() const { return daemon_.port(); }
  bool failed() const { return failed_; }

 private:
  static serve::QueryEngine::Options options(std::size_t workers) {
    serve::QueryEngine::Options o;
    o.workers = workers;
    o.cache_capacity = kCacheCapacity;
    return o;
  }

  serve::QueryEngine engine_;
  serve::ServeDaemon daemon_;
  std::atomic<bool> failed_{false};
  std::thread loop_;
};

/// Reads an unsigned counter `"key": N` from a /stats body.
std::uint64_t stat_counter(const std::string& body, const std::string& key) {
  const std::size_t p = body.find("\"" + key + "\": ");
  if (p == std::string::npos) return 0;
  return std::strtoull(body.c_str() + p + key.size() + 4, nullptr, 10);
}

/// Reads `"key": number|null` from a response body; null is +infinity.
bool body_number(std::string_view body, const char* key, double& out) {
  const std::string needle = std::string("\"") + key + "\": ";
  const std::size_t p = body.find(needle);
  if (p == std::string_view::npos) return false;
  // Bodies are short JSON objects; copy the value into a terminated buffer.
  const std::string value(body.substr(p + needle.size(), 32));
  if (value.compare(0, 4, "null") == 0) {
    out = kInfiniteWeight;
    return true;
  }
  char* end = nullptr;
  out = std::strtod(value.c_str(), &end);
  return end != value.c_str();
}

/// The distances every 200 response reported, checked at the end against
/// a separate in-process QueryEngine (no cache, all lanes).
struct AnswerLog {
  struct Served {
    std::uint32_t id;  ///< query id
    bool parsed;       ///< the body held the fields the query asks for
    Weight dh, dg;
  };
  std::vector<Served> served;

  void add(std::uint32_t id, const serve::ServeQuery& q,
           std::string_view body) {
    Served s{id, false, 0, 0};
    s.parsed = q.want_base ? body_number(body, "spanner_distance", s.dh) &&
                                 body_number(body, "base_distance", s.dg)
                           : body_number(body, "distance", s.dh);
    served.push_back(s);
  }

  std::uint64_t verify(const Instance& inst, const Spec& spec,
                       const QueryStream& qs, unsigned nproc) const {
    std::vector<std::uint32_t> ids;
    ids.reserve(served.size());
    for (const Served& s : served) ids.push_back(s.id);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    std::vector<serve::ServeQuery> batch;
    batch.reserve(ids.size());
    for (const std::uint32_t id : ids) batch.push_back(qs.queries[id]);
    serve::QueryEngine::Options o;
    o.workers = std::max(1u, nproc);
    o.cache_capacity = 0;
    serve::QueryEngine ref(inst.g, inst.spanner, spec.k, o);
    std::vector<serve::ServeAnswer> answers;
    ref.answer_batch(batch, answers);

    std::uint64_t wrong = 0;
    for (const Served& s : served) {
      const auto slot = std::lower_bound(ids.begin(), ids.end(), s.id);
      const serve::ServeAnswer& a = answers[slot - ids.begin()];
      const bool ok = s.parsed && s.dh == a.dh &&
                      (!qs.queries[s.id].want_base || s.dg == a.dg);
      wrong += !ok;
    }
    return wrong;
  }
};

/// Offers `count` stream requests at `rate`, logging answers and failures.
PhaseResult offer(LoadGen& gen, QueryStream& qs, double rate,
                  std::size_t count, AnswerLog& log, Report& rep,
                  const char* what) {
  const std::vector<std::uint32_t> stream =
      qs.take(std::max<std::size_t>(count, 1));
  PhaseResult r = gen.run(qs.requests, stream, rate,
                          [&](std::size_t j, std::string_view body) {
                            log.add(stream[j], qs.queries[stream[j]], body);
                          });
  rep.tally(r.attempted, r.failed(), what);
  return r;
}

bool meets_limit(const PhaseResult& r, double limit_ms) {
  return r.failed() == 0 && quantile(r.latency_ms, 0.99) <= limit_ms &&
         quantile(r.tail_latency_ms, 0.99) <= limit_ms;
}

/// p99 of every full window of kWindow consecutive requests (by due time),
/// median over the windows: a tail figure that one stall of the host cannot
/// move, with ten samples beyond the percentile in every window.
constexpr std::size_t kWindow = 1000;
double windowed_p99(const std::vector<double>& latency_ms) {
  std::vector<double> p99s;
  for (std::size_t i = 0; i + kWindow <= latency_ms.size(); i += kWindow)
    p99s.push_back(quantile(
        std::vector<double>(latency_ms.begin() + static_cast<long>(i),
                            latency_ms.begin() + static_cast<long>(i + kWindow)),
        0.99));
  return p99s.empty() ? quantile(latency_ms, 0.99) : median(p99s);
}

/// serve_max_qps: the throughput the daemon sustains when offered more than
/// it can serve — the highest rate without a growing backlog. Windows whose
/// requests are all due at once (about 0.3 s of work each; 8 x 32 in flight
/// keeps every lane busy), repeated for `budget_s` (at least five), median
/// taken.
double saturation_qps(LoadGen& gen, QueryStream& qs, const Spec& spec,
                      double budget_s, AnswerLog& log, Report& rep) {
  std::vector<double> caps;
  double guess = 4 * spec.serve_qps;
  const auto t0 = Clock::now();
  while (caps.size() < 5 || seconds_since(t0) < budget_s) {
    const PhaseResult r =
        offer(gen, qs, 1e12, static_cast<std::size_t>(0.3 * guess), log, rep,
              "saturation window");
    guess = static_cast<double>(r.ok) / std::max(r.seconds, 1e-3);
    caps.push_back(guess);
  }
  note("saturation %.0f qps (median of %.0f windows)", median(caps),
       static_cast<double>(caps.size()));
  return median(caps);
}

/// The highest of 0.9 C, 0.8 C, ... (C = saturation throughput) whose p99
/// over 0.5 s — over the whole step and over its last quarter, so a growing
/// backlog fails — meets kP99LimitMs.
double p99_limited_qps(LoadGen& gen, QueryStream& qs, double cap,
                       AnswerLog& log, Report& rep) {
  for (double frac = 0.9; frac > 0.05; frac -= 0.1) {
    const double step = frac * cap;
    const PhaseResult r = offer(gen, qs, step,
                                static_cast<std::size_t>(step * 0.5), log, rep,
                                "max-rate search step");
    if (meets_limit(r, kP99LimitMs)) return step;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Per-layer probes (traced run).

/// DijkstraEngine::run from a fixed source list on the workload's graph and
/// resolved queue; settles per second over at least `min_s` seconds.
double settles_per_s(const Instance& inst, double min_s, Trace& trace) {
  const Csr csr(inst.g);
  DijkstraEngine eng;
  eng.reserve(inst.g.num_vertices(), 2 * inst.g.num_edges() + 1);
  eng.set_queue(inst.queue, inst.profile.max_weight);
  const std::size_t n = inst.g.num_vertices();
  const Scope span(trace, "graph.run");
  std::uint64_t settles = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    for (std::size_t i = 0; i < 32; ++i) {
      eng.run(csr, static_cast<Vertex>(i * n / 32));
      settles += eng.settle_order().size();
    }
    elapsed = seconds_since(t0);
  } while (elapsed < min_s);
  return static_cast<double>(settles) / elapsed;
}

/// Single-thread evaluate() of check_sampled's first `sets` random fault
/// sets (replayed with sample_fault_set), in ms each.
std::vector<double> per_set_ms(const Instance& inst, const Spec& spec,
                               std::size_t sets, Trace& trace) {
  const std::size_t n = inst.g.num_vertices();
  auto scratch = inst.oracle->make_scratch();
  std::vector<Vertex> pool;
  VertexSet faults(n);
  std::vector<double> ms;
  const Scope span(trace, "validate.sets");
  for (std::size_t i = 0; i < sets; ++i) {
    Rng rng(hash_combine(inst.val_seed, i));
    sample_fault_set(rng, std::min(spec.r, n - 2), pool, faults);
    const auto t0 = Clock::now();
    inst.oracle->evaluate(faults, scratch);
    const auto t1 = Clock::now();
    trace.record("validate.evaluate", t0, t1, span.id());
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return ms;
}

double lane_imbalance(const std::vector<double>& busy) {
  double mx = 0, sum = 0;
  for (const double b : busy) {
    mx = std::max(mx, b);
    sum += b;
  }
  return sum > 0 ? mx / (sum / static_cast<double>(busy.size())) : 1;
}

struct QueryLayer {
  double hit_rate = 0, hit_us = 0, miss_us = 0, parse_us = 0;
};

/// Replays `stream` through answer_batch on a fresh single-lane engine with
/// the daemon's cache (hit rate, miss cost), re-asks each query at once for
/// the hit cost, and parses every request's bytes with parse_http_request.
QueryLayer query_layer(const Instance& inst, const Spec& spec,
                       const QueryStream& qs,
                       const std::vector<std::uint32_t>& stream,
                       Trace& trace) {
  serve::QueryEngine::Options o;
  o.workers = 1;
  o.cache_capacity = kCacheCapacity;
  serve::QueryEngine engine(inst.g, inst.spanner, spec.k, o);
  std::vector<serve::ServeAnswer> answers;
  std::vector<double> hit_us, miss_us;
  std::size_t first_hits = 0;
  for (const std::uint32_t id : stream) {
    const std::span<const serve::ServeQuery> one(&qs.queries[id], 1);
    auto t0 = Clock::now();
    engine.answer_batch(one, answers);
    auto t1 = Clock::now();
    trace.record("serve.query", t0, t1);
    const double us = std::chrono::duration<double, std::micro>(t1 - t0).count();
    if (answers[0].from_cache) {
      ++first_hits;
      hit_us.push_back(us);
    } else {
      miss_us.push_back(us);
    }
    t0 = Clock::now();
    engine.answer_batch(one, answers);
    t1 = Clock::now();
    hit_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  QueryLayer out;
  out.hit_rate = static_cast<double>(first_hits) /
                 static_cast<double>(std::max<std::size_t>(stream.size(), 1));
  out.hit_us = median(hit_us);
  out.miss_us = median(miss_us);

  serve::HttpRequest req;
  std::size_t parsed = 0, consumed = 0;
  const Scope span(trace, "serve.http.parse");
  const auto t0 = Clock::now();
  for (int rep = 0; rep < 20; ++rep)
    for (const std::uint32_t id : stream) {
      parsed += serve::parse_http_request(qs.requests[id], 16384, req,
                                          consumed) ==
                serve::HttpParseStatus::kOk;
    }
  out.parse_us = seconds_since(t0) * 1e6 /
                 static_cast<double>(std::max<std::size_t>(parsed, 1));
  return out;
}

// ---------------------------------------------------------------------------

/// The traced run's per-layer figures (see README.md for each).
struct Layers {
  double settles_per_s = 0;
  double base_calls = 0, base_ms_p50 = 0, base_busy_s = 0;
  double outside_base_s = 0;
  double lane_imbalance = 0, speedup_1to4 = 0;
  double set_ms_p50 = 0, set_ms_max = 0, oracle_build_s = 0;
  double hit_rate = 0, hit_us = 0, miss_us = 0, parse_us = 0;
  double fixed_p50_ms = 0, fixed_p99_ms = 0, p99_limited_qps = 0;
  double delayed_ack_p50_ms = 0;
  double front_us = 0, shed = 0, rejected = 0;
  double lag_p99_ms = 0;
  double overhead_frac = 0;
};

void print_size_line(const Instance& inst, const Spec& spec) {
  const double m = static_cast<double>(inst.g.num_edges());
  const double h = static_cast<double>(inst.spanner.size());
  std::fprintf(stderr,
               "[ftbench] n=%zu m=%zu |H|=%zu |H|/m=%.4f "
               "|H|/corollary22_bound=%.4f engine_resolved=%s\n",
               inst.g.num_vertices(), inst.g.num_edges(), inst.spanner.size(),
               h / m,
               h / corollary22_size_bound(inst.g.num_vertices(), spec.k,
                                          spec.r),
               to_string(inst.queue));
}

}  // namespace

bool known_workload(const std::string& name) {
  return find_spec(name) != nullptr;
}

Report run_workload(const RunConfig& cfg, Trace& trace) {
  const Spec& spec = *find_spec(cfg.workload);
  Report rep;
  const std::size_t workers = serve_workers(cfg.nproc);

  // ---- Set-up, repeated; the timed phase uses the last instance. -------
  std::vector<double> setup_s, setup_convert_s;
  std::unique_ptr<Instance> inst;
  std::unique_ptr<Server> server;
  std::uint64_t spanner_hash = 0;
  double setup_total = 0;
  for (std::size_t i = 0;
       i < spec.setup_reps || (setup_total < 0.3 && i < 50); ++i) {
    server.reset();
    inst.reset();
    const Scope span(trace, "setup");
    const auto t0 = Clock::now();
    auto fresh = make_instance(spec, cfg.seed);
    if (spec.primary != Primary::kConvert) {
      const auto tc = Clock::now();
      fresh->set_spanner(convert(*fresh, spec, kThreads).edges);
      setup_convert_s.push_back(seconds_since(tc));
    }
    if (spec.primary == Primary::kValidate)
      fresh->oracle =
          std::make_unique<StretchOracle>(fresh->g, fresh->h, spec.k);
    if (spec.primary == Primary::kServe)
      server = std::make_unique<Server>(*fresh, spec, workers);
    setup_s.push_back(seconds_since(t0));
    setup_total += setup_s.back();
    const std::uint64_t hash = runner::edge_set_hash(fresh->spanner);
    if (i == 0) spanner_hash = hash;
    rep.check(hash == spanner_hash, "set-up is not deterministic");
    inst = std::move(fresh);
  }
  rep.check(inst->queue == spec.queue,
            std::string("engine_resolved is ") + to_string(inst->queue) +
                ", expected " + to_string(spec.queue));

  QueryStream qs(inst->g.num_vertices(), inst->query_seed);
  AnswerLog answers;
  Layers layers;  // filled by the traced run only

  // Peak RSS, sampled when the workload's own timed phase ends (before the
  // other paths' gates and the answer check add the benchmark's own data).
  double peak_mb = 0;

  // ---- Conversion. ------------------------------------------------------
  // convert: timed for the budget (untraced) or once through the wrapped
  // factory (traced); elsewhere the set-up conversions give convert_s.
  double convert_s = median(setup_convert_s);
  if (spec.primary == Primary::kConvert && !cfg.trace) {
    std::vector<double> times;
    const auto t0 = Clock::now();
    do {
      const auto tc = Clock::now();
      ConversionResult res = convert(*inst, spec, kThreads);
      times.push_back(seconds_since(tc));
      const std::uint64_t hash = runner::edge_set_hash(res.edges);
      if (inst->spanner.empty()) {
        spanner_hash = hash;
        inst->set_spanner(std::move(res.edges));
      }
      rep.check(hash == spanner_hash,
                "conversion output changed between runs");
    } while (seconds_since(t0) < cfg.seconds || times.size() < 3);
    convert_s = median(times);
    peak_mb = static_cast<double>(peak_rss_bytes()) / 1e6;
    note("convert: %.0f conversions, median %.4f s",
         static_cast<double>(times.size()), convert_s);
  }
  if (cfg.trace) {
    const TracedConversion tc = traced_convert(*inst, spec, kThreads, trace);
    const std::uint64_t hash = runner::edge_set_hash(tc.result.edges);
    if (inst->spanner.empty()) {
      spanner_hash = hash;
      inst->set_spanner(tc.result.edges);
    }
    rep.check(hash == spanner_hash,
              "wrapped-factory conversion differs from ft_greedy_spanner");
    std::vector<double> calls, busy;
    for (const auto& lane : tc.lane_call_ms) {
      calls.insert(calls.end(), lane.begin(), lane.end());
      double b = 0;
      for (const double ms : lane) b += ms / 1e3;
      busy.push_back(b);
    }
    double busy_sum = 0, busy_max = 0;
    for (const double b : busy) {
      busy_sum += b;
      busy_max = std::max(busy_max, b);
    }
    layers.base_calls = static_cast<double>(calls.size());
    layers.base_ms_p50 = median(calls);
    layers.base_busy_s = busy_sum;
    layers.outside_base_s = tc.wall_s - busy_max;
    if (spec.primary != Primary::kValidate) {
      // Untraced twin at 4 threads (tracing overhead) and the single-thread
      // baseline; all three must agree bit for bit.
      const auto t4 = Clock::now();
      const std::uint64_t h4 =
          runner::edge_set_hash(convert(*inst, spec, kThreads).edges);
      const double s4 = seconds_since(t4);
      const auto t1 = Clock::now();
      const std::uint64_t h1 =
          runner::edge_set_hash(convert(*inst, spec, 1).edges);
      const double s1 = seconds_since(t1);
      rep.check(h4 == spanner_hash && h1 == spanner_hash,
                "conversion differs across thread counts");
      layers.lane_imbalance = lane_imbalance(busy);
      layers.speedup_1to4 = s1 / s4;
      if (spec.primary == Primary::kConvert)
        layers.overhead_frac = (tc.wall_s - s4) / s4;
    }
  }

  // ---- Validation. ------------------------------------------------------
  if (!inst->oracle)
    inst->oracle = std::make_unique<StretchOracle>(inst->g, inst->h, spec.k);
  if (cfg.trace) {
    std::vector<double> builds;
    for (int i = 0; i < 5; ++i) {
      const auto t0 = Clock::now();
      const StretchOracle oracle(inst->g, inst->h, spec.k);
      builds.push_back(seconds_since(t0));
    }
    layers.oracle_build_s = median(builds);
  }
  FtCheckResult verdict;
  double sets_per_s = 0;
  if (spec.primary == Primary::kValidate && !cfg.trace) {
    std::vector<double> rates;
    const auto t0 = Clock::now();
    do {
      const auto tc = Clock::now();
      const FtCheckResult res = check(*inst, spec, kThreads);
      rates.push_back(static_cast<double>(res.fault_sets_checked) /
                      seconds_since(tc));
      if (rates.size() == 1) verdict = res;
      rep.check(same_verdict(res, verdict),
                "validation verdict changed between runs");
    } while (seconds_since(t0) < cfg.seconds || rates.size() < 3);
    sets_per_s = median(rates);
    peak_mb = static_cast<double>(peak_rss_bytes()) / 1e6;
    note("validate: %.0f checks, median %.2f sets/s",
         static_cast<double>(rates.size()), sets_per_s);
  } else {
    // The gate check; cheap ones repeat for 1.5 s so the rate is a median.
    std::vector<double> rates;
    double s4 = 0, total = 0;
    do {
      const auto t0 = Clock::now();
      FtCheckResult res;
      {
        const Scope span(trace, "validate.check_sampled");
        res = check(*inst, spec, kThreads);
      }
      s4 = seconds_since(t0);
      total += s4;
      rates.push_back(static_cast<double>(res.fault_sets_checked) / s4);
      if (rates.size() == 1) verdict = res;
      rep.check(same_verdict(res, verdict),
                "validation verdict changed between runs");
    } while (!cfg.trace && total < 1.5);
    sets_per_s = median(rates);
    if (cfg.trace && spec.primary == Primary::kValidate) {
      const auto tu = Clock::now();
      const FtCheckResult again = check(*inst, spec, kThreads);
      const double s4u = seconds_since(tu);
      const auto t1 = Clock::now();
      const FtCheckResult single = check(*inst, spec, 1);
      const double s1 = seconds_since(t1);
      rep.check(same_verdict(again, verdict) && same_verdict(single, verdict),
                "validation verdict differs between threads 1 and 4");
      layers.speedup_1to4 = s1 / s4u;
      layers.overhead_frac = (s4 - s4u) / s4u;
    }
  }
  if (cfg.trace) {
    const std::size_t sets =
        spec.primary == Primary::kConvert ? 8 : kRandomTrials;
    const std::vector<double> ms = per_set_ms(*inst, spec, sets, trace);
    layers.set_ms_p50 = median(ms);
    layers.set_ms_max = *std::max_element(ms.begin(), ms.end());
    if (spec.primary == Primary::kValidate) {
      // Lane occupancy of the 4-lane check: random sets at their measured
      // evaluate() cost, adversary probes at their mean cost, dealt out as
      // the burst pipeline does (burst b -> lane b mod workers).
      FtCheckOptions o;
      o.threads = 1;
      const auto ta = Clock::now();
      inst->oracle->check_sampled(spec.r, 0, kAdversarial, inst->val_seed, o);
      const double adv_ms = seconds_since(ta) * 1e3 / kAdversarial;
      std::vector<double> busy(kThreads, 0);
      for (std::size_t i = 0; i < kRandomTrials + kAdversarial; ++i)
        busy[(i / kDefaultBurst) % kThreads] +=
            i < kRandomTrials ? ms[i] : adv_ms;
      layers.lane_imbalance = lane_imbalance(busy);
    }
  }

  // ---- Serving. ---------------------------------------------------------
  // The serve workloads' own daemon, or a probe daemon over this
  // workload's spanner.
  std::unique_ptr<Server> probe;
  if (!server) probe = std::make_unique<Server>(*inst, spec, workers);
  Server& daemon = server ? *server : *probe;
  double max_qps = 0;
  {
    LoadGen gen({daemon.port(), kConns, kMaxInflight, 2.0}, trace);
    offer(gen, qs, spec.serve_qps, 200, answers, rep, "warm-up");
    if (spec.primary == Primary::kServe)
      peak_mb = static_cast<double>(peak_rss_bytes()) / 1e6;
    if (!cfg.trace) {
      max_qps = saturation_qps(
          gen, qs, spec, spec.primary == Primary::kServe ? cfg.seconds : 4.0,
          answers, rep);
    } else {
      // Latency at the fixed offered rate, timed from when each request
      // was due: once untraced, once with a span per request (overhead).
      const std::size_t count = static_cast<std::size_t>(spec.serve_qps * 3);
      Trace off(false);
      LoadGen plain({daemon.port(), kConns, kMaxInflight, 2.0}, off);
      const PhaseResult untraced =
          offer(plain, qs, spec.serve_qps, count, answers, rep, "untraced");
      const PhaseResult traced =
          offer(gen, qs, spec.serve_qps, count, answers, rep, "traced");
      layers.fixed_p50_ms = quantile(untraced.latency_ms, 0.5);
      layers.fixed_p99_ms = windowed_p99(untraced.latency_ms);
      layers.lag_p99_ms = quantile(traced.lag_ms, 0.99);
      LoadGen delayed_ack({daemon.port(), kConns, kMaxInflight, 2.0, false},
                          off);
      layers.delayed_ack_p50_ms =
          quantile(offer(delayed_ack, qs, spec.serve_qps, count, answers, rep,
                         "delayed-ACK client")
                       .latency_ms,
                   0.5);
      layers.p99_limited_qps = p99_limited_qps(
          plain, qs, saturation_qps(plain, qs, spec, 0, answers, rep), answers,
          rep);
      if (spec.primary == Primary::kServe)
        layers.overhead_frac =
            (quantile(traced.latency_ms, 0.5) - layers.fixed_p50_ms) /
            layers.fixed_p50_ms;

      const std::vector<std::uint32_t> stream = qs.take(2000);
      const QueryLayer ql = query_layer(*inst, spec, qs, stream, trace);
      layers.hit_rate = ql.hit_rate;
      layers.hit_us = ql.hit_us;
      layers.miss_us = ql.miss_us;
      layers.parse_us = ql.parse_us;

      // Front end: round trip at a low rate minus the query-engine time at
      // the hit/miss mix the daemon saw meanwhile.
      const std::string before = http_get(daemon.port(), "/stats");
      const PhaseResult low = offer(gen, qs, 200, 300, answers, rep, "low-rate");
      const std::string after = http_get(daemon.port(), "/stats");
      const double hits = static_cast<double>(stat_counter(after, "hits") -
                                              stat_counter(before, "hits"));
      const double misses = static_cast<double>(
          stat_counter(after, "misses") - stat_counter(before, "misses"));
      const double f_hit = hits + misses > 0 ? hits / (hits + misses) : 0;
      layers.front_us = quantile(low.latency_ms, 0.5) * 1e3 -
                        (f_hit * ql.hit_us + (1 - f_hit) * ql.miss_us);
      layers.shed = static_cast<double>(stat_counter(after, "shed") +
                                        stat_counter(after, "deadline_hits") +
                                        stat_counter(after, "internal_errors"));
      layers.rejected = static_cast<double>(stat_counter(after, "bad_requests"));
      rep.check(!before.empty() && !after.empty(), "GET /stats failed");
    }
  }
  rep.check(!daemon.failed(), "daemon loop failed");
  probe.reset();

  // ---- Correctness gates. ------------------------------------------------
  print_size_line(*inst, spec);
  rep.check(inst->spanner.size() < inst->g.num_edges(),
            "spanner is vacuous: |H| >= m");
  rep.check(verdict.valid, "sampled oracle verdict is invalid");
  std::fprintf(stderr,
               "[ftbench] verdict valid=%d worst_stretch=%.17g witness=(%u,%u) "
               "sets=%zu edges_hash=%016llx\n",
               verdict.valid ? 1 : 0, verdict.worst_stretch, verdict.witness_u,
               verdict.witness_v, verdict.fault_sets_checked,
               static_cast<unsigned long long>(spanner_hash));
  if (const std::optional<Pin> pin = find_pin(cfg.workload, cfg.seed)) {
    rep.check(spanner_hash == pin->edges_hash,
              "edges_hash differs from the pinned digest");
    rep.check(verdict.valid == pin->valid &&
                  verdict.worst_stretch == pin->worst_stretch &&
                  verdict.witness_u == pin->witness_u &&
                  verdict.witness_v == pin->witness_v,
              "oracle verdict differs from the pinned values");
  } else if (spec.primary != Primary::kServe) {
    // No pinned values for this seed: the heap engine, which this
    // workload's own queue never is, must reproduce the output bit for bit.
    note("seed not pinned; cross-checking against the heap engine");
    if (spec.primary == Primary::kConvert)
      rep.check(runner::edge_set_hash(
                    convert(*inst, spec, kThreads, SpEnginePolicy::kHeap)
                        .edges) == spanner_hash,
                "heap-engine conversion differs");
    else
      rep.check(same_verdict(check(*inst, spec, kThreads,
                                   SpEnginePolicy::kHeap),
                             verdict),
                "heap-engine validation differs");
  }
  if (!answers.served.empty()) {
    const std::uint64_t wrong = answers.verify(*inst, spec, qs, cfg.nproc);
    rep.tally(answers.served.size(), wrong, "served answers vs reference");
  }
  server.reset();

  if (!cfg.trace) {
    rep.add("setup_s", median(setup_s), "s");
    rep.add("peak_rss_mb", peak_mb, "MB");
    rep.add("convert_s", convert_s, "s");
    rep.add("validate_sets_per_s", sets_per_s, "1/s");
    rep.add("serve_max_qps", max_qps, "1/s");
    return rep;
  }
  layers.settles_per_s = settles_per_s(*inst, 0.5, trace);
  for (const auto& [layer, sec] : trace.self_times())
    std::fprintf(stderr, "[ftbench] self time %-26s %10.4f s\n", layer.c_str(),
                 sec);
  rep.add("graph.settles_per_s", layers.settles_per_s, "1/s");
  rep.add("spanner.base_calls", layers.base_calls, "count");
  rep.add("spanner.base_ms_p50", layers.base_ms_p50, "ms");
  rep.add("spanner.base_busy_s", layers.base_busy_s, "s");
  rep.add("ftspanner.outside_base_s", layers.outside_base_s, "s");
  rep.add("pipeline.lane_imbalance", layers.lane_imbalance, "ratio");
  rep.add("pipeline.speedup_1to4", layers.speedup_1to4, "ratio");
  rep.add("validate.set_ms_p50", layers.set_ms_p50, "ms");
  rep.add("validate.set_ms_max", layers.set_ms_max, "ms");
  rep.add("validate.oracle_build_s", layers.oracle_build_s, "s");
  rep.add("serve.fixed_p50_ms", layers.fixed_p50_ms, "ms");
  rep.add("serve.fixed_p99_ms", layers.fixed_p99_ms, "ms");
  rep.add("serve.p99_limited_qps", layers.p99_limited_qps, "1/s");
  rep.add("serve.delayed_ack_p50_ms", layers.delayed_ack_p50_ms, "ms");
  rep.add("serve.query.hit_rate", layers.hit_rate, "ratio");
  rep.add("serve.query.hit_us", layers.hit_us, "us");
  rep.add("serve.query.miss_us", layers.miss_us, "us");
  rep.add("serve.http.parse_us", layers.parse_us, "us");
  rep.add("serve.server.front_us", layers.front_us, "us");
  rep.add("serve.server.shed", layers.shed, "count");
  rep.add("serve.server.rejected", layers.rejected, "count");
  rep.add("loadgen.lag_p99_ms", layers.lag_p99_ms, "ms");
  rep.add("trace.overhead_frac", layers.overhead_frac, "ratio");
  rep.add("host.nproc", cfg.nproc, "count");
  return rep;
}

int print_pins(std::uint64_t first, std::uint64_t last) {
  for (std::uint64_t seed = first; seed <= last; ++seed)
    for (const Spec& spec : kSpecs) {
      auto inst = make_instance(spec, seed);
      inst->set_spanner(convert(*inst, spec, kThreads).edges);
      inst->oracle = std::make_unique<StretchOracle>(inst->g, inst->h, spec.k);
      const FtCheckResult v = check(*inst, spec, kThreads);
      std::printf("{\"%s\", %llu, 0x%016llxull, %s, %.17g, %u, %u},\n",
                  spec.name, static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(
                      runner::edge_set_hash(inst->spanner)),
                  v.valid ? "true" : "false", v.worst_stretch, v.witness_u,
                  v.witness_v);
      std::fflush(stdout);
    }
  return 0;
}

}  // namespace ftbench
