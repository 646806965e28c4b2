// mcrtl_perfbench: the exploration-point benchmark.
//
//   mcrtl_perfbench --workload <explore_suite|explore_large|search_grid|
//                   serve_mixed> --seed N --seconds S --trace 0|1
//
// Runs one seeded workload against the library in this process for S
// seconds (closed loop: each call starts when the previous one returned),
// checks every output, prints each metric on its own line, and ends with
// one JSON line {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics; --trace 1 is the separate traced run that
// reports per-layer metrics and writes its spans to
// .bench_run/trace-<workload>-<seed>.json. Exits 1 if any check failed.
// README.md in this directory says why each workload exists.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "core/search.hpp"
#include "core/serve.hpp"
#include "host.hpp"
#include "layers.hpp"
#include "obs/obs.hpp"
#include "stats.hpp"
#include "suite/benchmarks.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace mcrtl;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace {

const Clock::time_point g_process_start = Clock::now();

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

/// Set-ups per run; setup_s is their median. The first one is timed from
/// process start, so it also carries the process's own start-up.
constexpr int kSetups = 3;
/// Warm replays per cold search on search_grid.
constexpr int kReplays = 30;
/// Requests per serve_mixed round, each round on a fresh daemon and DB.
constexpr std::size_t kServeRequests = 200;
/// Sweeps of a serve_mixed round replicated by the traced run.
constexpr std::size_t kServeProfileSweeps = 24;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Run {
  explicit Run(const Options& o)
      : opt(o),
        tracer(o.trace),
        jobs(static_cast<int>(ThreadPool::resolve_jobs(0))) {}

  const Options& opt;
  Tracer tracer;
  Checks checks;
  const int jobs;
  std::uint64_t request = 0;
  fs::path dir;  // per-run scratch inside the checkout
  double setup_s = 0;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> e2e;
  std::map<std::string, double> layers;

  void metric(const std::string& name, double v, const std::string& unit) {
    e2e.push_back({name, v, unit});
  }
  /// Runs `once` kSetups times and records the median as setup_s.
  void setups(const std::function<void()>& once) {
    std::vector<double> t;
    for (int k = 0; k < kSetups; ++k) {
      const auto t0 = k == 0 ? g_process_start : Clock::now();
      once();
      t.push_back(seconds_since(t0));
    }
    setup_s = median(t);
  }
};

void print_tail(const char* name, const std::vector<double>& v) {
  const Tail t = tail_percentile(v);
  std::printf("metric %-18s %.4f ms  (p%d of %zu samples, %zu beyond)\n", name,
              t.value, t.pct, t.samples, t.beyond);
}

/// Runs fn(0..n-1) on `threads` threads, each index once.
void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (std::size_t i; (i = next++) < n;) fn(i);
    });
  }
  for (auto& w : workers) w.join();
}

/// Per-key median over several passes' metric maps.
std::map<std::string, double> median_of(
    const std::vector<std::map<std::string, double>>& passes) {
  std::map<std::string, std::vector<double>> cols;
  for (const auto& p : passes) {
    for (const auto& [k, v] : p) cols[k].push_back(v);
  }
  std::map<std::string, double> out;
  for (auto& [k, v] : cols) out[k] = median(v);
  return out;
}

// ---- explore_suite / explore_large ------------------------------------------

void run_explore(Run& run, bool large) {
  std::vector<Sweep> sweeps;
  std::vector<std::uint64_t> ref;
  auto explore_checked = [&](std::size_t i) -> std::size_t {
    run.checks.attempt();
    try {
      const auto r = core::explore(*sweeps[i].graph, *sweeps[i].sched,
                                   sweeps[i].cfg);
      run.checks.expect(digest_matches(ref[i], sweep_csv(sweeps[i], r)),
                        sweeps[i].name + ": report differs from jobs=1");
      return r.points.size();
    } catch (const std::exception& e) {
      run.checks.expect(false, sweeps[i].name + " threw: " + e.what());
      return 0;
    }
  };
  run.setups([&] {
    sweeps = large ? large_sweeps(run.opt.seed, run.jobs)
                   : suite_sweeps(run.opt.seed, run.jobs);
    // Reference reports at jobs=1, one sweep per thread.
    ref.assign(sweeps.size(), 0);
    parallel_for(sweeps.size(), run.jobs, [&](std::size_t i) {
      core::ExplorerConfig c = sweeps[i].cfg;
      c.jobs = 1;
      try {
        ref[i] = digest(sweep_csv(
            sweeps[i], core::explore(*sweeps[i].graph, *sweeps[i].sched, c)));
      } catch (const std::exception& e) {
        run.checks.expect(false,
                          sweeps[i].name + " (jobs=1) threw: " + e.what());
      }
    });
    // Untimed warm-up pass: a fresh process's first jobs=N pass is slower.
    for (std::size_t i = 0; i < sweeps.size(); ++i) explore_checked(i);
  });

  const auto t0 = Clock::now();
  if (!run.opt.trace) {
    std::vector<double> lat;
    std::size_t points = 0;
    do {
      for (std::size_t i = 0; i < sweeps.size(); ++i) {
        const auto t = Clock::now();
        points += explore_checked(i);
        lat.push_back(ms_since(t));
      }
    } while (seconds_since(t0) < run.opt.seconds);
    const double pps = static_cast<double>(points) / seconds_since(t0);
    std::printf("metric %-18s %.4f 1/s  (%zu points)\n", "points_per_s", pps,
                points);
    std::printf("metric %-18s %.4f ms\n", "sweep_p50_ms", median(lat));
    std::printf("metric %-18s %.4f ms\n", "sweep_mean_ms", mean(lat));
    print_tail("sweep_tail_ms", lat);
    run.metric("throughput_per_s", pps, "1/s");
    run.metric("mean_ms", mean(lat), "ms");
    run.metric("tail_ms", tail_percentile(lat).value, "ms");
    return;
  }
  std::vector<ProfileSweep> prof;
  for (const auto& s : sweeps) {
    prof.push_back({s.graph.get(), s.sched.get(), s.cfg});
  }
  const std::string db = (run.dir / "points.db").string();
  std::vector<std::map<std::string, double>> passes;
  do {
    auto m = profile_pass(prof, run.jobs, run.tracer, run.checks, db,
                          run.request);
    m.merge(cache_probe(db, run.tracer, ++run.request));
    passes.push_back(std::move(m));
  } while (seconds_since(t0) < run.opt.seconds);
  run.layers = median_of(passes);
  std::printf("traced %zu profile passes over %zu sweeps\n", passes.size(),
              sweeps.size());
}

// ---- search_grid ------------------------------------------------------------

void run_search(Run& run) {
  SearchGrid grid;
  const std::string db = (run.dir / "cache.db").string();
  core::SearchConfig cfg;
  core::SearchResult last;
  // One cold search on an empty DB followed by warm replays of it; returns
  // the cold time.
  std::vector<double> replay_ms;
  std::vector<std::map<std::string, double>> counts;
  auto cycle = [&](bool timed) -> double {
    fs::remove(db);
    run.checks.attempt();
    const std::uint64_t req = ++run.request;
    const bool obs_on = run.opt.trace && timed;
    if (obs_on) {
      obs::Registry::instance().reset();
      obs::set_enabled(true);
    }
    double cold_ms = 0;
    std::string cold_csv;
    try {
      const auto t = Clock::now();
      {
        Tracer::Scope s(run.tracer, "core.search", req);
        last = core::search(grid.space, cfg);
      }
      cold_ms = ms_since(t);
      cold_csv = core::search_to_csv(last);
      run.checks.expect(last.rows.size() + last.pruned.size() ==
                            grid.space.candidates.size(),
                        "search left candidates undecided");
    } catch (const std::exception& e) {
      run.checks.expect(false, std::string("cold search threw: ") + e.what());
    }
    if (obs_on) {
      obs::set_enabled(false);
      std::map<std::string, double> c;
      for (const auto& [k, v] : obs::Registry::instance().counters()) {
        const auto n = static_cast<double>(v);
        if (k == "sim.steps") c["core.search.sim_steps"] = n;
        if (k == "search.deduped") c["core.search.deduped"] = n;
      }
      obs::Registry::instance().reset();
      std::size_t front = 0;
      for (const auto& r : last.rows) front += r.pareto ? 1 : 0;
      const auto full = static_cast<double>(last.full_evaluations);
      c["core.search.full_evaluations"] = full;
      c["core.search.aborted"] = static_cast<double>(last.aborted);
      c["core.search.front_yield"] =
          full > 0 ? static_cast<double>(front) / full : 0.0;
      c.merge(cache_probe(db, run.tracer, req));
      counts.push_back(std::move(c));
    }
    for (int k = 0; k < kReplays; ++k) {
      run.checks.attempt();
      try {
        const auto t = Clock::now();
        core::SearchResult warm;
        {
          Tracer::Scope s(run.tracer, "core.search.replay", req);
          warm = core::search(grid.space, cfg);
        }
        if (timed) replay_ms.push_back(ms_since(t));
        run.checks.expect(core::search_to_csv(warm) == cold_csv,
                          "warm replay CSV differs from the cold search");
        run.checks.expect(warm.cache_misses == 0,
                          "warm replay missed the cache");
      } catch (const std::exception& e) {
        run.checks.expect(false, std::string("warm replay threw: ") + e.what());
      }
    }
    return cold_ms;
  };
  run.setups([&] {
    grid = search_grid();
    cfg = search_config(run.opt.seed, run.jobs, db);
    cycle(false);
  });

  const auto t0 = Clock::now();
  std::vector<double> cold_ms;
  do {
    cold_ms.push_back(cycle(true));
  } while (seconds_since(t0) < run.opt.seconds);
  double cold_s = 0;
  for (const double c : cold_ms) cold_s += c / 1e3;
  const double cps = static_cast<double>(grid.space.candidates.size() *
                                         cold_ms.size()) /
                     cold_s;
  std::printf("metric %-18s %.4f 1/s  (%zu cold searches of %zu candidates, "
              "median %.1f ms)\n",
              "candidates_per_s", cps, cold_ms.size(),
              grid.space.candidates.size(), median(cold_ms));
  std::printf("metric %-18s %.4f ms\n", "replay_ms", median(replay_ms));
  std::printf("metric %-18s %.4f ms\n", "replay_mean_ms", mean(replay_ms));
  print_tail("replay_tail_ms", replay_ms);
  std::printf("search: %zu rows, %zu pruned, %zu full evaluations, "
              "%zu aborted\n",
              last.rows.size(), last.pruned.size(), last.full_evaluations,
              last.aborted);
  if (!run.opt.trace) {
    run.metric("throughput_per_s", cps, "1/s");
    run.metric("mean_ms", mean(replay_ms), "ms");
    run.metric("tail_ms", tail_percentile(replay_ms).value, "ms");
    return;
  }
  // Profile the full-depth sweeps behind the rows of the width-4
  // reference-schedule behaviours: explore() over each one's row configs.
  std::vector<ProfileSweep> prof;
  for (const auto& b : grid.space.behaviours) {
    if (b.name.find("/w4/ref") == std::string::npos) continue;
    ProfileSweep p{b.graph, b.sched, {}};
    p.cfg.computations = cfg.computations;
    p.cfg.seed = cfg.seed;
    p.cfg.streams = cfg.streams;
    p.cfg.power_params = cfg.power_params;
    for (const auto& r : last.rows) {
      if (r.behaviour == b.name) {
        p.cfg.explicit_configs.emplace_back(r.point.options, r.point.label);
      }
    }
    if (!p.cfg.explicit_configs.empty()) prof.push_back(std::move(p));
  }
  run.layers = profile_pass(prof, run.jobs, run.tracer, run.checks,
                            (run.dir / "profile.db").string(), run.request);
  for (const auto& [k, v] : median_of(counts)) run.layers[k] = v;
}

// ---- serve_mixed ------------------------------------------------------------

struct Reply {
  std::string key;
  bool ok = false;
  bool computed = false;
  double ms = 0;
  std::uint64_t payload = 0;  // digest
};

void run_serve(Run& run) {
  std::vector<Reply> replies;
  std::vector<core::SweepServer::Stats> stats;
  std::vector<double> round_s;
  std::vector<std::map<std::string, double>> cache_counts;
  std::size_t round_no = 0;
  std::vector<core::SweepRequest> first_timed;
  // One round: a fresh daemon on an empty DB, two closed-loop clients.
  auto round = [&](bool timed) {
    const std::uint64_t r = round_no++;
    const auto reqs =
        serve_requests(derive_seed(run.opt.seed, r), kServeRequests);
    if (timed && first_timed.empty()) first_timed = reqs;
    const std::string db =
        (run.dir / ("round" + std::to_string(r) + ".db")).string();
    core::SweepServer::Config sc;
    sc.socket_path = (run.dir / "serve.sock").string();
    sc.cache_db = db;
    sc.jobs = 2;
    std::vector<std::vector<Reply>> per_client(2);
    const std::uint64_t base = run.request;
    run.request += reqs.size();
    double wall = 0;
    {
      core::SweepServer server(sc);
      server.start();
      Tracer::Scope rs(run.tracer, "core.serve.round", base);
      const auto t0 = Clock::now();
      std::vector<std::thread> clients;
      for (std::size_t c = 0; c < per_client.size(); ++c) {
        clients.emplace_back([&, c] {
          for (std::size_t i = c; i < reqs.size(); i += per_client.size()) {
            Reply rep;
            rep.key = request_key(reqs[i]);
            const auto t = Clock::now();
            try {
              Tracer::Scope s(run.tracer, "core.serve.request", base + i + 1);
              const auto q = core::serve_query(sc.socket_path, reqs[i]);
              rep.ok = q.ok;
              rep.computed = q.computed;
              rep.payload = digest(q.payload);
            } catch (const std::exception&) {
              rep.ok = false;
            }
            rep.ms = ms_since(t);
            per_client[c].push_back(std::move(rep));
          }
        });
      }
      for (auto& t : clients) t.join();
      wall = seconds_since(t0);
      server.stop();
      if (timed) stats.push_back(server.stats());
    }
    if (timed) {
      round_s.push_back(wall);
      for (auto& pc : per_client) {
        for (auto& rep : pc) replies.push_back(std::move(rep));
      }
      if (run.opt.trace) {
        cache_counts.push_back(cache_probe(db, run.tracer, base));
      }
    }
    fs::remove(db);
  };
  run.setups([&] { round(false); });

  const auto t0 = Clock::now();
  do {
    round(true);
  } while (seconds_since(t0) < run.opt.seconds);

  // Every reply, cached or computed, must carry the bytes this process
  // computes for the same request at jobs=1.
  std::map<std::string, std::uint64_t> reference;
  for (const auto& rep : replies) reference.emplace(rep.key, 0);
  std::vector<std::pair<const std::string, std::uint64_t>*> slots;
  for (auto& kv : reference) slots.push_back(&kv);
  parallel_for(slots.size(), run.jobs, [&](std::size_t i) {
    const std::string& key = slots[i]->first;
    try {
      slots[i]->second = digest(reference_reply(core::parse_request(key), 1));
    } catch (const std::exception& e) {
      run.checks.expect(false,
                        "reference for '" + key + "' threw: " + e.what());
    }
  });
  std::vector<double> cached, computed;
  for (const auto& rep : replies) {
    run.checks.attempt();
    if (!run.checks.expect(rep.ok, "request failed: " + rep.key)) continue;
    run.checks.expect(rep.payload == reference.at(rep.key),
                      std::string(rep.computed ? "computed" : "cached") +
                          " reply differs from the reference: " + rep.key);
    (rep.computed ? computed : cached).push_back(rep.ms);
  }
  double wall = 0;
  for (const double s : round_s) wall += s;
  const double rps = static_cast<double>(replies.size()) / wall;
  std::printf("metric %-18s %.4f 1/s  (%zu requests in %zu rounds, "
              "%zu cached)\n",
              "requests_per_s", rps, replies.size(), round_s.size(),
              cached.size());
  std::printf("metric %-18s %.4f ms\n", "cached_p50_ms", median(cached));
  print_tail("cached_tail_ms", cached);
  std::printf("metric %-18s %.4f ms\n", "computed_p50_ms", median(computed));
  std::printf("metric %-18s %.4f ms\n", "computed_mean_ms", mean(computed));
  print_tail("computed_tail_ms", computed);
  if (!run.opt.trace) {
    run.metric("throughput_per_s", rps, "1/s");
    run.metric("mean_ms", mean(computed), "ms");
    run.metric("tail_ms", tail_percentile(computed).value, "ms");
    return;
  }
  core::SweepServer::Stats sum;
  std::vector<double> computed_per_round, joined_per_round;
  for (const auto& s : stats) {
    sum.requests += s.requests;
    sum.served_from_cache += s.served_from_cache;
    computed_per_round.push_back(static_cast<double>(s.sweeps_computed));
    joined_per_round.push_back(static_cast<double>(s.joined_inflight));
  }
  // Profile the first distinct sweeps of the first timed round.
  std::vector<suite::Benchmark> benches;
  std::vector<ProfileSweep> prof;
  std::set<std::string> seen;
  for (const auto& q : first_timed) {
    if (prof.size() == kServeProfileSweeps) break;
    if (!seen.insert(request_key(q)).second) continue;
    benches.push_back(suite::by_name(q.benchmark, q.width));
    ProfileSweep p{benches.back().graph.get(),
                   benches.back().schedule.get(), {}};
    p.cfg.max_clocks = q.clocks;
    p.cfg.include_dff_variant = q.dff;
    p.cfg.computations = q.computations;
    p.cfg.seed = q.seed;
    p.cfg.streams = q.streams;
    prof.push_back(std::move(p));
  }
  run.layers = profile_pass(prof, run.jobs, run.tracer, run.checks,
                            (run.dir / "profile.db").string(), run.request);
  for (const auto& [k, v] : median_of(cache_counts)) run.layers[k] = v;
  run.layers["core.serve.hit_ratio"] =
      sum.requests ? static_cast<double>(sum.served_from_cache) /
                         static_cast<double>(sum.requests)
                   : 0.0;
  run.layers["core.serve.computed"] = median(computed_per_round);
  run.layers["core.serve.joined"] = median(joined_per_round);
}

// ---- command line -----------------------------------------------------------

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds > 0)) return false;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      o.trace = v[0] == '1';
    } else {
      return false;
    }
  }
  return argc % 2 == 1 &&
         (o.workload == "explore_suite" || o.workload == "explore_large" ||
          o.workload == "search_grid" || o.workload == "serve_mixed");
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: %s --workload explore_suite|explore_large|search_grid|"
                 "serve_mixed [--seed N] [--seconds S] [--trace 0|1]\n",
                 argv[0]);
    return 2;
  }
  Run run(o);
  run.dir = fs::path(".bench_run") /
            (o.workload + "-" + std::to_string(::getpid()));
  fs::create_directories(run.dir);
  const std::string host = host_stamp_json(o.workload, o.seed, o.seconds);
  std::printf("host %s\n", host.c_str());
  try {
    if (o.workload == "explore_suite") run_explore(run, false);
    if (o.workload == "explore_large") run_explore(run, true);
    if (o.workload == "search_grid") run_search(run);
    if (o.workload == "serve_mixed") run_serve(run);
  } catch (const std::exception& e) {
    run.checks.attempt();
    run.checks.expect(false, std::string("workload threw: ") + e.what());
  }
  std::error_code ec;
  fs::remove_all(run.dir, ec);

  const std::size_t attempted =
      std::max<std::size_t>(run.checks.attempted(), 1);
  const std::size_t failed = run.checks.failed();
  const double failed_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);
  std::printf("metric %-18s %.4f s  (median of %d set-ups)\n", "setup_s",
              run.setup_s, kSetups);
  std::printf("metric %-18s %.4f MiB\n", "peak_rss_mb", peak_rss_mb());
  std::printf("metric %-18s %.6f ratio  (%zu of %zu)\n", "failed_ratio",
              failed_ratio, failed, attempted);

  std::string metrics;
  auto add = [&](const std::string& name, double v, const std::string& unit) {
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + name +
               "\": {\"value\": " + num(v) + ", \"unit\": \"" + unit +
               "\"}";
  };
  if (o.trace) {
    for (const auto& [name, unit] : layer_metrics()) {
      const auto it = run.layers.find(name);
      const double v = it == run.layers.end() ? 0.0 : it->second;
      std::printf("layer %-30s %.6g %s\n", name.c_str(), v, unit.c_str());
      add(name, v, unit);
    }
    const fs::path out =
        fs::path(".bench_run") / ("trace-" + o.workload + "-" +
                                  std::to_string(o.seed) + ".json");
    std::ofstream(out) << run.tracer.chrome_json(host);
    std::fprintf(stderr, "trace written to %s\n", out.string().c_str());
  } else {
    for (const auto& m : run.e2e) add(m.name, m.value, m.unit);
    add("setup_s", run.setup_s, "s");
    add("peak_rss_mb", peak_rss_mb(), "MiB");
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              metrics.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}
