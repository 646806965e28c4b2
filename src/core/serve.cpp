#include "core/serve.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/shard.hpp"
#include "core/synthesizer.hpp"
#include "obs/obs.hpp"
#include "power/report.hpp"
#include "suite/benchmarks.hpp"
#include "util/fault_injection.hpp"
#include "util/net.hpp"
#include "util/strings.hpp"

namespace mcrtl::core {

namespace {

constexpr const char* kServeMagic = "mcrtl-serve v1";

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(s.c_str(), &end, 10);
  return errno == 0 && end != s.c_str() && *end == '\0';
}

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> toks;
  std::istringstream is(line);
  std::string t;
  while (is >> t) toks.push_back(t);
  return toks;
}

}  // namespace

std::string encode_request(const SweepRequest& req) {
  std::ostringstream os;
  os << kServeMagic << ' ' << req.verb;
  if (req.verb == "sweep") {
    os << " bench=" << req.benchmark << " width=" << req.width
       << " clocks=" << req.clocks << " dff=" << (req.dff ? 1 : 0)
       << " comps=" << req.computations << " seed=" << req.seed
       << " streams=" << req.streams;
  }
  return os.str();
}

SweepRequest parse_request(const std::string& line) {
  fault::inject("serve.request", line);
  if (line.size() > kMaxRequestLine) {
    throw Error("request exceeds " + std::to_string(kMaxRequestLine) +
                " bytes");
  }
  const auto toks = split_ws(line);
  if (toks.size() < 3 || toks[0] + " " + toks[1] != kServeMagic) {
    throw Error("bad protocol magic (expected '" + std::string(kServeMagic) +
                " <verb> ...')");
  }
  SweepRequest req;
  req.verb = toks[2];
  if (req.verb == "ping" || req.verb == "shutdown") {
    if (toks.size() != 3) throw Error("'" + req.verb + "' takes no arguments");
    return req;
  }
  if (req.verb != "sweep") throw Error("unknown verb '" + req.verb + "'");
  for (std::size_t i = 3; i < toks.size(); ++i) {
    const std::size_t eq = toks[i].find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= toks[i].size()) {
      throw Error("malformed argument '" + toks[i] + "' (expected key=value)");
    }
    const std::string key = toks[i].substr(0, eq);
    const std::string val = toks[i].substr(eq + 1);
    std::uint64_t num = 0;
    const bool numeric = parse_u64(val, num);
    if (key == "bench") {
      req.benchmark = val;
    } else if (key == "width") {
      if (!numeric || num < 1 || num > 64) {
        throw Error("width must be 1..64, got '" + val + "'");
      }
      req.width = static_cast<unsigned>(num);
    } else if (key == "clocks") {
      if (!numeric || num < 1 || num > 16) {
        throw Error("clocks must be 1..16, got '" + val + "'");
      }
      req.clocks = static_cast<int>(num);
    } else if (key == "dff") {
      if (!numeric || num > 1) throw Error("dff must be 0 or 1");
      req.dff = num == 1;
    } else if (key == "comps") {
      if (!numeric || num < 1 || num > 10'000'000) {
        throw Error("comps must be 1..10000000, got '" + val + "'");
      }
      req.computations = static_cast<std::size_t>(num);
    } else if (key == "seed") {
      if (!numeric) throw Error("seed must be numeric, got '" + val + "'");
      req.seed = num;
    } else if (key == "streams") {
      if (!numeric || num < 1 || num > 64) {
        throw Error("streams must be 1..64, got '" + val + "'");
      }
      req.streams = static_cast<std::size_t>(num);
    } else {
      throw Error("unknown argument '" + key + "'");
    }
  }
  if (req.benchmark.empty()) throw Error("sweep needs bench=<name>");
  return req;
}

// ---- server ----------------------------------------------------------------

/// Per-sweep-fingerprint in-flight slot: the first requester computes, any
/// concurrent identical request blocks on the condvar and shares the
/// outcome (result CSV or error text).
struct Inflight {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  bool failed = false;
  std::string error;
  std::string csv;
  std::size_t rows = 0;
};

struct ServeImpl {
  explicit ServeImpl(SweepServer::Config* cfg) : cfg(cfg) {}

  SweepServer::Config* cfg;
  SweepServer* server = nullptr;
  std::unique_ptr<net::UnixListener> listener;
  std::thread accept_thread;
  std::mutex threads_m;
  std::vector<std::thread> handlers;

  std::mutex cache_m;
  ResultCache cache;

  std::mutex inflight_m;
  std::unordered_map<std::uint64_t, std::shared_ptr<Inflight>> inflight;

  std::mutex stats_m;
  SweepServer::Stats st;

  void bump(std::uint64_t SweepServer::Stats::*field, std::uint64_t by = 1) {
    std::lock_guard<std::mutex> lk(stats_m);
    st.*field += by;
  }

  /// The ExplorerConfig a request describes (jobs from the server config).
  /// Shared by the fingerprint and the computation, so both agree on the
  /// sweep's identity.
  ExplorerConfig explorer_config(const SweepRequest& req) const {
    ExplorerConfig ec;
    ec.max_clocks = req.clocks;
    ec.include_dff_variant = req.dff;
    ec.computations = req.computations;
    ec.seed = req.seed;
    ec.streams = req.streams;
    ec.jobs = cfg->jobs;
    return ec;
  }

  /// Assemble the sweep entirely from cached points, if every enumerated
  /// configuration is present. Points are placed in enumeration order and
  /// finished by finalize_points() — byte-identical to a computed sweep.
  bool assemble_from_cache(
      const SweepRequest& req, const dfg::Graph& graph,
      const dfg::Schedule& sched,
      const std::vector<std::pair<SynthesisOptions, std::string>>& configs,
      ExplorationResult& out) {
    const std::uint64_t mfp = measurement_fingerprint(
        graph, sched, req.computations, req.seed, req.streams,
        ExplorerConfig{}.power_params);
    std::lock_guard<std::mutex> lk(cache_m);
    std::vector<ExplorationPoint> points;
    points.reserve(configs.size());
    for (const auto& [opts, label] : configs) {
      const ExplorationPoint* hit = cache.find_row(point_key(mfp, opts));
      if (!hit) return false;
      ExplorationPoint p = *hit;
      p.options = opts;
      p.label = label;  // a cached row may carry another sweep's label
      p.pareto = false;
      points.push_back(std::move(p));
    }
    out.points = std::move(points);
    out.replayed_points = out.points.size();
    finalize_points(out.points);
    return true;
  }

  /// Put a computed sweep's rows into the cache and, with a cache DB,
  /// append them in one fsync'd batch before the reply goes out (a failing
  /// disk stops persistence, never the daemon).
  void store_points(const SweepRequest& req, const dfg::Graph& graph,
                    const dfg::Schedule& sched, const ExplorationResult& r) {
    const std::uint64_t mfp = measurement_fingerprint(
        graph, sched, req.computations, req.seed, req.streams,
        ExplorerConfig{}.power_params);
    std::vector<ResultCache::Record> batch;
    batch.reserve(r.points.size());
    for (const auto& p : r.points) {
      batch.push_back({point_key(mfp, p.options), &p, 0, {}});
    }
    std::lock_guard<std::mutex> lk(cache_m);
    cache.append(batch);
  }

  /// Compute (or cache-assemble) one sweep and render its CSV.
  void run_sweep(const SweepRequest& req, Inflight& slot,
                 bool& computed, std::size_t& cached, std::size_t& total) {
    auto bench = suite::by_name(req.benchmark, req.width);
    const ExplorerConfig ec = explorer_config(req);
    const auto configs = enumerate_configurations(ec);
    total = configs.size();
    ExplorationResult r;
    if (assemble_from_cache(req, *bench.graph, *bench.schedule, configs, r)) {
      cached = total;
      bump(&SweepServer::Stats::served_from_cache);
      bump(&SweepServer::Stats::cache_point_hits, total);
    } else {
      computed = true;
      r = explore(*bench.graph, *bench.schedule, ec);
      store_points(req, *bench.graph, *bench.schedule, r);
      bump(&SweepServer::Stats::sweeps_computed);
    }
    const auto recs = explore_records(r, bench.name, req.width,
                                      req.computations, req.streams);
    slot.csv = power::to_csv(recs);
    slot.rows = recs.size();
  }

  void handle_sweep(net::UnixConn& conn, const SweepRequest& req) {
    // Sweep identity: the scope a checkpoint file of this sweep carries —
    // everything that determines the measurements, nothing about execution.
    auto bench = suite::by_name(req.benchmark, req.width);
    const std::uint64_t fp = sweep_fingerprint(explorer_config(req),
                                               *bench.graph, *bench.schedule);

    std::shared_ptr<Inflight> slot;
    bool owner = false;
    {
      std::lock_guard<std::mutex> lk(inflight_m);
      auto it = inflight.find(fp);
      if (it == inflight.end()) {
        slot = std::make_shared<Inflight>();
        inflight.emplace(fp, slot);
        owner = true;
      } else {
        slot = it->second;
      }
    }

    bool computed = false;
    std::size_t cached = 0;
    std::size_t total = 0;
    if (owner) {
      try {
        run_sweep(req, *slot, computed, cached, total);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lk(slot->m);
        slot->failed = true;
        slot->error = e.what();
      }
      {
        std::lock_guard<std::mutex> lk(slot->m);
        slot->done = true;
      }
      slot->cv.notify_all();
      {
        std::lock_guard<std::mutex> lk(inflight_m);
        inflight.erase(fp);
      }
    } else {
      bump(&SweepServer::Stats::joined_inflight);
      std::unique_lock<std::mutex> lk(slot->m);
      slot->cv.wait(lk, [&] { return slot->done; });
    }

    if (slot->failed) {
      conn.send_all("err " + slot->error + "\n");
      return;
    }
    std::ostringstream os;
    os << "ok rows=" << slot->rows << " computed=" << (computed ? 1 : 0)
       << " cached=" << cached << '/' << total << " fp="
       << str_format("%016llx", static_cast<unsigned long long>(fp))
       << " bytes=" << slot->csv.size() << '\n';
    conn.send_all(os.str());
    conn.send_all(slot->csv);
  }

  void handle_connection(net::UnixConn conn) {
    bump(&SweepServer::Stats::connections);
    try {
      conn.set_recv_timeout(cfg->client_timeout_s);
      std::string line;
      if (!conn.recv_line(line, kMaxRequestLine)) return;  // clean EOF
      SweepRequest req;
      try {
        req = parse_request(line);
      } catch (const std::exception& e) {
        bump(&SweepServer::Stats::rejected);
        conn.send_all(std::string("err ") + e.what() + "\n");
        return;
      }
      if (req.verb == "ping") {
        conn.send_all("ok pong\n");
        return;
      }
      if (req.verb == "shutdown") {
        // Stop first, then acknowledge: a client that reads "ok bye" must
        // find the stop already requested.
        server->request_stop();
        conn.send_all("ok bye\n");
        return;
      }
      bump(&SweepServer::Stats::requests);
      handle_sweep(conn, req);
    } catch (const std::exception&) {
      // Recv timeout, oversized line, peer vanished mid-send: this
      // connection is lost, the daemon is not.
      bump(&SweepServer::Stats::rejected);
    }
  }

  void accept_loop() {
    while (!server->stop_requested()) {
      net::UnixConn conn = listener->accept(/*timeout_ms=*/100);
      if (!conn.valid()) continue;
      std::lock_guard<std::mutex> lk(threads_m);
      handlers.emplace_back(
          [this, c = std::move(conn)]() mutable { handle_connection(std::move(c)); });
    }
  }
};

SweepServer::SweepServer(Config cfg) : cfg_(std::move(cfg)) {
  MCRTL_CHECK_MSG(!cfg_.socket_path.empty(),
                  "SweepServer needs a socket path");
  impl_ = std::make_unique<ServeImpl>(&cfg_);
  impl_->server = this;
  if (!cfg_.cache_db.empty()) {
    const auto cst = impl_->cache.load_and_compact(cfg_.cache_db);
    if (cst.bad_lines > 0) obs::count("serve.cache.bad_lines", cst.bad_lines);
    if (cst.rewritten) obs::count("serve.cache.compacted");
  }
}

SweepServer::~SweepServer() { stop(); }

void SweepServer::start() {
  MCRTL_CHECK_MSG(!impl_->listener, "SweepServer already started");
  impl_->listener = std::make_unique<net::UnixListener>(cfg_.socket_path);
  impl_->accept_thread = std::thread([this] { impl_->accept_loop(); });
}

void SweepServer::request_stop() {
  {
    std::lock_guard<std::mutex> lk(stop_m_);
    stop_.store(true, std::memory_order_relaxed);
  }
  stop_cv_.notify_all();
}

bool SweepServer::stop_requested() const {
  return stop_.load(std::memory_order_relaxed);
}

void SweepServer::wait_until_stopped() {
  std::unique_lock<std::mutex> lk(stop_m_);
  stop_cv_.wait(lk, [&] { return stop_.load(std::memory_order_relaxed); });
}

void SweepServer::stop() {
  request_stop();
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();
  // Drain: every accepted connection is answered before the socket dies.
  std::vector<std::thread> handlers;
  {
    std::lock_guard<std::mutex> lk(impl_->threads_m);
    handlers.swap(impl_->handlers);
  }
  for (auto& t : handlers) {
    if (t.joinable()) t.join();
  }
  if (impl_->listener) impl_->listener->close();
}

SweepServer::Stats SweepServer::stats() const {
  std::lock_guard<std::mutex> lk(impl_->stats_m);
  return impl_->st;
}

// ---- clients ---------------------------------------------------------------

ServeReply serve_query(const std::string& socket_path, const SweepRequest& req,
                       double timeout_s) {
  net::UnixConn conn = net::UnixConn::connect(socket_path);
  conn.set_recv_timeout(timeout_s);
  conn.send_all(encode_request(req) + "\n");
  std::string line;
  if (!conn.recv_line(line, 1 << 16)) {
    throw Error("daemon closed the connection without a reply");
  }
  ServeReply rep;
  if (line.rfind("err ", 0) == 0) {
    rep.error = line.substr(4);
    return rep;
  }
  if (line.rfind("ok ", 0) != 0) {
    throw Error("malformed daemon reply: '" + line + "'");
  }
  std::size_t bytes = 0;
  for (const auto& tok : split_ws(line.substr(3))) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    std::uint64_t num = 0;
    if (key == "rows" && parse_u64(val, num)) {
      rep.rows = static_cast<std::size_t>(num);
    } else if (key == "computed" && parse_u64(val, num)) {
      rep.computed = num != 0;
    } else if (key == "cached") {
      const std::size_t slash = val.find('/');
      std::uint64_t h = 0, t = 0;
      if (slash != std::string::npos &&
          parse_u64(val.substr(0, slash), h) &&
          parse_u64(val.substr(slash + 1), t)) {
        rep.cached_points = static_cast<std::size_t>(h);
        rep.total_points = static_cast<std::size_t>(t);
      }
    } else if (key == "fp") {
      rep.fingerprint = val;
    } else if (key == "bytes" && parse_u64(val, num)) {
      bytes = static_cast<std::size_t>(num);
    }
  }
  rep.payload = conn.recv_exact(bytes);
  rep.ok = true;
  return rep;
}

bool serve_ping(const std::string& socket_path, double timeout_s) {
  try {
    net::UnixConn conn = net::UnixConn::connect(socket_path);
    conn.set_recv_timeout(timeout_s);
    SweepRequest req;
    req.verb = "ping";
    conn.send_all(encode_request(req) + "\n");
    std::string line;
    return conn.recv_line(line, 256) && line == "ok pong";
  } catch (const std::exception&) {
    return false;
  }
}

bool serve_shutdown(const std::string& socket_path, double timeout_s) {
  try {
    net::UnixConn conn = net::UnixConn::connect(socket_path);
    conn.set_recv_timeout(timeout_s);
    SweepRequest req;
    req.verb = "shutdown";
    conn.send_all(encode_request(req) + "\n");
    std::string line;
    return conn.recv_line(line, 256) && line == "ok bye";
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace mcrtl::core
