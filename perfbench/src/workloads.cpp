#include "workloads.hpp"

#include <cstdio>

#include "core/record.hpp"
#include "core/shard.hpp"
#include "dfg/random_graph.hpp"
#include "power/report.hpp"
#include "suite/benchmarks.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace perfbench {

using namespace mcrtl;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<Sweep> suite_sweeps(std::uint64_t seed, int jobs) {
  std::vector<Sweep> out;
  for (const auto& name : suite::all_names()) {
    if (name == "motivating") continue;
    for (const unsigned w : {4u, 8u}) {
      auto b = suite::by_name(name, w);
      Sweep s;
      s.name = b.name;
      s.width = w;
      s.graph = std::move(b.graph);
      s.sched = std::move(b.schedule);
      s.cfg.max_clocks = 4;
      s.cfg.include_dff_variant = true;
      s.cfg.computations = 4000;
      s.cfg.streams = 1;
      s.cfg.jobs = jobs;
      s.cfg.seed = derive_seed(seed, out.size());
      out.push_back(std::move(s));
    }
  }
  return out;
}

std::vector<Sweep> large_sweeps(std::uint64_t seed, int jobs) {
  std::vector<Sweep> out;
  Rng rng(derive_seed(seed, 1000));
  for (const unsigned nodes : {128u, 256u, 512u, 1024u}) {
    for (int k = 0; k < 4; ++k) {
      dfg::RandomGraphConfig rc;
      rc.num_inputs = 8;
      rc.num_nodes = nodes;
      rc.width = 8;
      Sweep s;
      s.graph = std::make_unique<dfg::Graph>(dfg::random_graph(rng, rc));
      dfg::ResourceLimits limits;
      limits.default_limit = 4;
      s.sched = std::make_unique<dfg::Schedule>(
          dfg::schedule_list(*s.graph, limits));
      s.name = str_format("rand%u_%d", nodes, k);
      s.width = rc.width;
      s.cfg.max_clocks = 4;
      s.cfg.computations = 16;
      s.cfg.streams = 1;
      s.cfg.jobs = jobs;
      s.cfg.seed = derive_seed(seed, out.size());
      out.push_back(std::move(s));
    }
  }
  return out;
}

std::string sweep_csv(const Sweep& s, const core::ExplorationResult& r) {
  return power::to_csv(core::explore_records(
      r, s.name, s.width, s.cfg.computations, s.cfg.streams));
}

std::uint64_t digest(const std::string& text) {
  return core::record::fnv1a64(text);
}

bool digest_matches(std::uint64_t reference, const std::string& csv) {
  return digest(csv) == reference;
}

SearchGrid search_grid() {
  SearchGrid g;
  for (const std::string name : {"facet", "hal", "biquad", "bandpass"}) {
    for (const unsigned w : {4u, 8u}) {
      for (const int limit : {0, 1, 2}) {
        auto b = suite::by_name(name, w);
        g.graphs.push_back(std::move(b.graph));
        if (limit > 0) {
          dfg::ResourceLimits rl;
          rl.default_limit = limit;
          g.scheds.push_back(std::make_unique<dfg::Schedule>(
              dfg::schedule_list(*g.graphs.back(), rl)));
        } else {
          g.scheds.push_back(std::move(b.schedule));
        }
        // Schedules of one (behaviour, width) compute the same function,
        // so they compete in one dominance group.
        g.space.behaviours.push_back(core::SearchBehaviour{
            str_format("%s/w%u/%s", name.c_str(), w,
                       limit > 0 ? str_format("lim%d", limit).c_str() : "ref"),
            g.graphs.back().get(), g.scheds.back().get(),
            str_format("%s/w%u", name.c_str(), w)});
      }
    }
  }
  core::cross_variants(g.space, core::search_variants(4));
  return g;
}

core::SearchConfig search_config(std::uint64_t seed, int jobs,
                                 const std::string& cache_db) {
  core::SearchConfig c;
  c.computations = 1200;
  c.seed = derive_seed(seed, 2000);
  c.jobs = jobs;
  c.cache_db = cache_db;
  return c;
}

std::vector<core::SweepRequest> serve_requests(std::uint64_t seed,
                                               std::size_t count) {
  static const char* const kBench[] = {"facet", "hal", "biquad", "bandpass"};
  Rng rng(derive_seed(seed, 3000));
  std::vector<core::SweepRequest> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    core::SweepRequest r;
    r.benchmark = kBench[rng.next_below(4)];
    r.width = rng.next_below(2) == 0 ? 4 : 8;
    r.clocks = 2 + static_cast<int>(rng.next_below(3));
    r.seed = 1 + rng.next_below(6);
    r.computations = 1000;
    out.push_back(r);
  }
  return out;
}

std::string request_key(const core::SweepRequest& req) {
  return core::encode_request(req);
}

std::string reference_reply(const core::SweepRequest& req, int jobs) {
  auto b = suite::by_name(req.benchmark, req.width);
  core::ExplorerConfig ec;
  ec.max_clocks = req.clocks;
  ec.include_dff_variant = req.dff;
  ec.computations = req.computations;
  ec.seed = req.seed;
  ec.streams = req.streams;
  ec.jobs = jobs;
  const auto r = core::explore(*b.graph, *b.schedule, ec);
  return power::to_csv(core::explore_records(r, b.name, req.width,
                                             req.computations, req.streams));
}

void Checks::attempt(std::size_t n) {
  std::lock_guard<std::mutex> lk(m_);
  attempted_ += n;
}

bool Checks::expect(bool ok, const std::string& what) {
  if (ok) return true;
  std::lock_guard<std::mutex> lk(m_);
  if (++failed_ <= 5) std::fprintf(stderr, "check failed: %s\n", what.c_str());
  return false;
}

std::size_t Checks::attempted() const {
  std::lock_guard<std::mutex> lk(m_);
  return attempted_;
}

std::size_t Checks::failed() const {
  std::lock_guard<std::mutex> lk(m_);
  return failed_;
}

}  // namespace perfbench
