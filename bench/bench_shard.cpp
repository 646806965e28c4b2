// Multi-process sharded sweeps: aggregate throughput and merge cost.
//
// One sweep (ewf at width 8, max_clocks 4 = 9 points, 12000 computations —
// long enough that the unsharded run takes a few hundred milliseconds, so
// process start-up and merge are not the whole measurement) is run three
// ways:
//
//  * unsharded, in-process, jobs = 1 — the baseline every leg must match
//    byte-for-byte;
//  * sharded across K worker *processes* (K in {1, 2, 4}): fork K
//    children (no exec — the parent is single-threaded, so plain fork is
//    safe and skips binary startup), each explores its round-robin slice
//    into its own checkpoint file, the parent merges. The timed leg is the
//    whole fork -> wait -> merge pipeline, i.e. what a user of `--shard`
//    pays;
//  * through the sweep daemon: one computed round-trip, one served from
//    the point cache (the two costs a `mcrtl serve` client sees).
//
// Every leg's CSV/JSON reports are asserted byte-identical to the
// baseline; any mismatch is FATAL (exit 1) — this benchmark doubles as
// the perf-facing differential test. Writes BENCH_shard.json (cwd).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#ifndef _WIN32
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "core/explorer.hpp"
#include "core/serve.hpp"
#include "core/shard.hpp"
#include "host_info.hpp"
#include "power/report.hpp"
#include "suite/benchmarks.hpp"
#include "util/stats.hpp"

using namespace mcrtl;

namespace {

constexpr const char* kBenchmark = "ewf";
constexpr unsigned kWidth = 8;
constexpr int kClocks = 4;
constexpr std::size_t kComputations = 12000;
constexpr int kReps = 5;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

core::ExplorerConfig sweep_config() {
  core::ExplorerConfig cfg;
  cfg.max_clocks = kClocks;
  cfg.computations = kComputations;
  cfg.jobs = 1;
  return cfg;
}

std::string report_bytes(const core::ExplorationResult& r) {
  const auto recs =
      core::explore_records(r, kBenchmark, kWidth, kComputations, 1);
  return power::to_csv(recs) + "\n---\n" + power::to_json(recs);
}

void emit_timing(std::ofstream& js, const RunStats& s) {
  js << "\"pct50\": " << s.pct50 << ", \"pct90\": " << s.pct90
     << ", \"pct99\": " << s.pct99 << ", \"stddev\": " << s.stddev
     << ", \"reps\": " << s.n;
}

}  // namespace

#ifdef _WIN32
int main() {
  std::fprintf(stderr, "bench_shard is POSIX-only (fork + unix sockets)\n");
  return 0;
}
#else

int main() {
  const auto wall0 = std::chrono::steady_clock::now();
  const auto b = suite::by_name(kBenchmark, kWidth);
  const auto cfg = sweep_config();
  const std::size_t points = core::num_configurations(cfg);

  std::printf("=== sharded sweeps: %s/w%u x %zu points, %zu computations "
              "===\n\n",
              kBenchmark, kWidth, points, kComputations);

  // Baseline: unsharded, in-process — run once up front for the reference
  // bytes, then timed alongside the sharded legs.
  const auto baseline = core::explore(*b.graph, *b.schedule, cfg);
  const std::string expect = report_bytes(baseline);

  // Sharded legs: K real worker processes, then the strict merge. Returns
  // false on a failed worker or a merged report that differs.
  auto shard_leg = [&](int K, double& total_s, double& merge_s) {
    std::vector<std::string> journals;
    for (int k = 0; k < K; ++k) {
      journals.push_back("bench_shard_" + std::to_string(K) + "_" +
                         std::to_string(k) + ".journal");
      std::remove(journals.back().c_str());
    }
    auto t0 = std::chrono::steady_clock::now();
    std::vector<pid_t> kids;
    for (int k = 0; k < K; ++k) {
      const pid_t pid = fork();
      if (pid < 0) {
        std::fprintf(stderr, "FATAL: fork failed\n");
        return false;
      }
      if (pid == 0) {
        auto shard = cfg;
        shard.shard_index = k;
        shard.shard_count = K;
        shard.checkpoint_file = journals[static_cast<std::size_t>(k)];
        core::explore(*b.graph, *b.schedule, shard);
        _exit(0);
      }
      kids.push_back(pid);
    }
    bool ok = true;
    for (const pid_t pid : kids) {
      int status = 0;
      waitpid(pid, &status, 0);
      ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    if (!ok) {
      std::fprintf(stderr, "FATAL: shard worker failed (K=%d)\n", K);
      return false;
    }
    auto tm = std::chrono::steady_clock::now();
    const auto merged =
        core::merge_shard_journals(*b.graph, *b.schedule, cfg, journals);
    merge_s = seconds_since(tm);
    total_s = seconds_since(t0);
    for (const auto& j : journals) std::remove(j.c_str());
    if (report_bytes(merged) != expect) {
      std::fprintf(stderr,
                   "FATAL: K=%d merged reports differ from the unsharded "
                   "run\n",
                   K);
      return false;
    }
    return true;
  };

  // The legs are interleaved rep by rep, so drift on a noisy host shifts
  // every leg alike instead of biasing the speedups.
  const int kWorkers[] = {1, 2, 4};
  std::vector<double> base_samples;
  std::vector<std::vector<double>> total_samples(3), merge_samples(3);
  for (int rep = 0; rep < kReps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    core::explore(*b.graph, *b.schedule, cfg);
    base_samples.push_back(seconds_since(t0));
    for (std::size_t l = 0; l < 3; ++l) {
      double total_s = 0, merge_s = 0;
      if (!shard_leg(kWorkers[l], total_s, merge_s)) return 1;
      total_samples[l].push_back(total_s);
      merge_samples[l].push_back(merge_s);
    }
  }
  const RunStats base = RunStats::from_samples(std::move(base_samples));
  std::printf("unsharded: pct50 %.3fs (%.1f points/s)\n", base.pct50,
              static_cast<double>(points) / base.pct50);

  struct ShardTiming {
    int workers = 0;
    RunStats total;   ///< fork -> wait -> merge, the user-visible cost
    RunStats merge;   ///< the merge alone
  };
  std::vector<ShardTiming> legs;
  for (std::size_t l = 0; l < 3; ++l) {
    ShardTiming leg;
    leg.workers = kWorkers[l];
    leg.total = RunStats::from_samples(std::move(total_samples[l]));
    leg.merge = RunStats::from_samples(std::move(merge_samples[l]));
    legs.push_back(leg);
    std::printf("K=%d workers: pct50 %.3fs total (merge %.4fs), speedup "
                "%.2fx, %.1f points/s, reports byte-identical\n",
                leg.workers, leg.total.pct50, leg.merge.pct50,
                base.pct50 / leg.total.pct50,
                static_cast<double>(points) / leg.total.pct50);
  }

  // Daemon leg: one computed and one cache-served round-trip.
  const std::string sock = "bench_shard.sock";
  std::remove(sock.c_str());
  core::SweepServer::Config scfg;
  scfg.socket_path = sock;
  scfg.jobs = 1;
  core::SweepServer server(scfg);
  server.start();
  core::SweepRequest req;
  req.benchmark = kBenchmark;
  req.width = kWidth;
  req.clocks = kClocks;
  req.computations = kComputations;
  req.seed = cfg.seed;  // SweepRequest defaults to the CLI seed (1996)
  auto t0 = std::chrono::steady_clock::now();
  const auto computed = core::serve_query(sock, req);
  const double serve_computed_s = seconds_since(t0);
  t0 = std::chrono::steady_clock::now();
  const auto cached = core::serve_query(sock, req);
  const double serve_cached_s = seconds_since(t0);
  server.stop();
  if (!computed.ok || !cached.ok || !computed.computed || cached.computed) {
    std::fprintf(stderr, "FATAL: daemon round-trips misbehaved\n");
    return 1;
  }
  const std::string expect_csv =
      power::to_csv(core::explore_records(baseline, kBenchmark, kWidth,
                                          kComputations, 1));
  if (computed.payload != expect_csv || cached.payload != expect_csv) {
    std::fprintf(stderr,
                 "FATAL: daemon payload differs from the unsharded CSV\n");
    return 1;
  }
  std::printf("daemon: computed round-trip %.3fs, cached %.4fs (%.0fx)\n\n",
              serve_computed_s, serve_cached_s,
              serve_computed_s / serve_cached_s);

  {
    std::ofstream js("BENCH_shard.json");
    js << "{\n  \"benchmark\": \"" << kBenchmark << "\",\n  \"width\": "
       << kWidth << ",\n  \"points\": " << points
       << ",\n  \"computations\": " << kComputations
       << ",\n  \"worker_model\": \"fork_per_shard\""
       << ",\n  \"unsharded_seconds\": " << base.pct50
       << ",\n  \"unsharded_timing\": {";
    emit_timing(js, base);
    js << "},\n  \"shards\": [\n";
    for (std::size_t i = 0; i < legs.size(); ++i) {
      const auto& leg = legs[i];
      js << "    {\"workers\": " << leg.workers
         << ", \"total_seconds\": " << leg.total.pct50
         << ", \"merge_seconds\": " << leg.merge.pct50
         << ",\n     \"total_timing\": {";
      emit_timing(js, leg.total);
      js << "},\n     \"merge_timing\": {";
      emit_timing(js, leg.merge);
      js << "},\n     \"speedup\": " << base.pct50 / leg.total.pct50
         << ", \"points_per_second\": "
         << static_cast<double>(points) / leg.total.pct50 << "}"
         << (i + 1 < legs.size() ? "," : "") << "\n";
    }
    js << "  ],\n  \"serve\": {\"computed_seconds\": " << serve_computed_s
       << ", \"cached_seconds\": " << serve_cached_s
       << ", \"cached_speedup\": " << serve_computed_s / serve_cached_s
       << "},\n  \"byte_identical_reports\": true"
       << ",\n  \"host\": " << bench::host_json()
       << ",\n  \"wall_seconds\": " << seconds_since(wall0) << "\n}\n";
  }
  std::printf("wrote BENCH_shard.json\n");
  return 0;
}

#endif  // _WIN32
