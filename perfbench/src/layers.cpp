#include "layers.hpp"

#include <chrono>
#include <filesystem>
#include <optional>
#include <unordered_map>

#include "core/checkpoint.hpp"
#include "core/record.hpp"
#include "core/search.hpp"
#include "core/synthesizer.hpp"
#include "power/attribution.hpp"
#include "power/estimator.hpp"
#include "sim/equivalence.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace mcrtl;

core::ExplorationResult replicate_explore(const dfg::Graph& graph,
                                          const dfg::Schedule& sched,
                                          const core::ExplorerConfig& cfg,
                                          Tracer& tracer, std::uint64_t request,
                                          KernelTally& tally, Checks& checks) {
  Tracer::Scope sweep(tracer, "core.explore", request);
  sim::InputStream stream;
  {
    Tracer::Scope s(tracer, "sim.stimulus", request);
    Rng rng(cfg.seed);
    stream = sim::uniform_stream(rng, graph.inputs().size(), cfg.computations,
                                 graph.width());
  }
  const auto tech = power::TechLibrary::cmos08();
  const auto configs = core::enumerate_configurations(cfg);
  core::ExplorationResult result;
  result.points.resize(configs.size());
  // explore() measures identical configurations once and copies the point.
  std::unordered_map<std::uint64_t, std::size_t> first;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto& [opts, label] = configs[i];
    const auto [it, fresh] = first.emplace(core::config_hash(opts), i);
    if (!fresh) continue;
    Tracer::Scope point(tracer, "core.explore.point", request);
    core::ExplorationPoint& p = result.points[i];
    p.options = opts;
    p.label = label;
    std::optional<core::Synthesized> syn;
    {
      Tracer::Scope s(tracer, "core.synthesize", request);
      syn.emplace(core::synthesize(graph, sched, opts));
    }
    std::optional<sim::Simulator> simulator;
    {
      Tracer::Scope s(tracer, "sim.build", request);
      simulator.emplace(*syn->design, sim::Simulator::Mode::EventDriven);
    }
    std::optional<power::Attribution> attribution;
    std::optional<sim::PowerProbe> probe;
    {
      Tracer::Scope s(tracer, "power.attribution", request);
      attribution.emplace(*syn->design, tech, cfg.power_params.vdd);
      probe.emplace(attribution->energy_model());
      simulator->set_power_probe(&*probe);
    }
    sim::SimResult res;
    {
      Tracer::Scope s(tracer, "sim.run", request);
      const auto before = simulator->kernel_stats();
      res = simulator->run(stream, graph.inputs(), graph.outputs());
      const auto& after = simulator->kernel_stats();
      tally.settles += after.settles - before.settles;
      tally.evals += after.evals - before.evals;
      tally.oblivious_evals += after.oblivious_evals - before.oblivious_evals;
    }
    {
      Tracer::Scope s(tracer, "sim.equivalence", request);
      const auto rep = sim::check_outputs(graph, stream, res.outputs,
                                          syn->design->style_name);
      checks.expect(rep.equivalent, "non-equivalent point " + label + ": " +
                                        rep.detail);
      tally.computations_checked += rep.computations_checked;
    }
    {
      Tracer::Scope s(tracer, "power.estimate", request);
      p.power = power::estimate_power(*syn->design, res.activity, tech,
                                      cfg.power_params);
    }
    {
      Tracer::Scope s(tracer, "power.attribution", request);
      const auto arep = attribution->attribute(res.activity);
      if (!arep.rows.empty()) {
        p.hotspot = arep.rows.front().component;
        p.hotspot_share = arep.total_fj > 0.0
                              ? arep.rows.front().energy_fj / arep.total_fj
                              : 0.0;
      }
      p.crest = probe->crest();
    }
    {
      Tracer::Scope s(tracer, "power.estimate", request);
      p.area = power::estimate_area(*syn->design, tech);
    }
    p.stats = syn->design->stats;
    ++tally.points;
  }
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const std::size_t c = first.at(core::config_hash(configs[i].first));
    if (c == i) continue;
    result.points[i] = result.points[c];
    result.points[i].options = configs[i].first;
    result.points[i].label = configs[i].second;
  }
  core::finalize_points(result.points);
  return result;
}

bool results_identical(const core::ExplorationResult& a,
                       const core::ExplorationResult& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const auto& p = a.points[i];
    const auto& q = b.points[i];
    if (p.pareto != q.pareto ||
        core::config_hash(p.options) != core::config_hash(q.options) ||
        core::record::encode_point_fields(p) !=
            core::record::encode_point_fields(q)) {
      return false;
    }
  }
  return true;
}

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::map<std::string, double> profile_pass(
    const std::vector<ProfileSweep>& sweeps, int jobs, Tracer& tracer,
    Checks& checks, const std::string& db_path, std::uint64_t& request) {
  const std::size_t mark = tracer.mark();
  KernelTally tally;
  core::ResultCache store;
  for (const auto& sw : sweeps) {
    const std::uint64_t req = ++request;
    checks.attempt();
    try {
      core::ExplorationResult replica, r1;
      auto run_replica = [&] {
        replica = replicate_explore(*sw.graph, *sw.sched, sw.cfg, tracer, req,
                                    tally, checks);
      };
      auto run_jobs1 = [&] {
        core::ExplorerConfig c1 = sw.cfg;
        c1.jobs = 1;
        Tracer::Scope s(tracer, "core.explore.jobs1", req);
        r1 = core::explore(*sw.graph, *sw.sched, c1);
      };
      // Alternate which runs first, so drift over the pass does not bias
      // core.explore.overhead_ms.
      if (req % 2 == 0) {
        run_replica();
        run_jobs1();
      } else {
        run_jobs1();
        run_replica();
      }
      core::ExplorerConfig cn = sw.cfg;
      cn.jobs = jobs;
      core::ExplorationResult rn;
      {
        Tracer::Scope s(tracer, "core.explore.jobsN", req);
        rn = core::explore(*sw.graph, *sw.sched, cn);
      }
      checks.expect(results_identical(replica, r1),
                    "replicated points differ from explore()");
      checks.expect(results_identical(r1, rn),
                    "explore() differs between jobs 1 and jobs N");
      const std::uint64_t mfp = core::measurement_fingerprint(
          *sw.graph, *sw.sched, sw.cfg.computations, sw.cfg.seed,
          sw.cfg.streams, sw.cfg.power_params);
      for (const auto& p : r1.points) {
        store.put_row(mfp ^ core::config_hash(p.options), p);
      }
    } catch (const std::exception& e) {
      checks.expect(false, std::string("profile sweep threw: ") + e.what());
    }
  }
  checks.expect(store.save(db_path), "cannot write " + db_path);

  const SelfTimes st = self_times(tracer.spans_since(mark));
  checks.expect(st.violations == 0,
                "children's time exceeds their span in " +
                    std::to_string(st.violations) + " spans");
  auto self = [&](const char* n) {
    const auto it = st.self_ms.find(n);
    return it == st.self_ms.end() ? 0.0 : it->second;
  };
  auto total = [&](const char* n) {
    const auto it = st.total_ms.find(n);
    return it == st.total_ms.end() ? 0.0 : it->second;
  };
  const double sweep_ms = total("core.explore");
  const double run_ms = self("sim.run");
  std::map<std::string, double> m;
  m["sim.run.self_ms"] = run_ms;
  m["sim.run.share"] = ratio(run_ms, sweep_ms);
  m["sim.settles"] = static_cast<double>(tally.settles);
  m["sim.evals_per_settle"] = ratio(static_cast<double>(tally.evals),
                                    static_cast<double>(tally.settles));
  m["sim.eval_ratio"] = ratio(static_cast<double>(tally.evals),
                              static_cast<double>(tally.oblivious_evals));
  m["sim.settles_per_s"] =
      ratio(static_cast<double>(tally.settles), run_ms / 1e3);
  m["sim.equivalence.self_ms"] = self("sim.equivalence");
  m["sim.equivalence.share"] = ratio(self("sim.equivalence"), sweep_ms);
  m["sim.equivalence.computations"] =
      static_cast<double>(tally.computations_checked);
  m["core.synthesize.self_ms"] = self("core.synthesize");
  m["core.synthesize.share"] = ratio(self("core.synthesize"), sweep_ms);
  m["core.synthesize.calls"] = static_cast<double>(
      st.calls.count("core.synthesize") ? st.calls.at("core.synthesize") : 0);
  m["sim.build.self_ms"] = self("sim.build");
  m["sim.stimulus.self_ms"] = self("sim.stimulus");
  m["power.attribution.self_ms"] = self("power.attribution");
  m["power.estimate.self_ms"] = self("power.estimate");
  m["core.explore.overhead_ms"] =
      ratio(total("core.explore.jobs1") - sweep_ms,
            static_cast<double>(sweeps.size()));
  const double speedup =
      ratio(total("core.explore.jobs1"), total("core.explore.jobsN"));
  m["util.pool.speedup"] = speedup;
  m["util.pool.efficiency"] =
      speedup / static_cast<double>(mcrtl::ThreadPool::resolve_jobs(jobs));
  return m;
}

std::map<std::string, double> cache_probe(const std::string& db_path,
                                          Tracer& tracer,
                                          std::uint64_t request) {
  std::map<std::string, double> m;
  core::ResultCache cache;
  auto t0 = std::chrono::steady_clock::now();
  {
    Tracer::Scope s(tracer, "core.cache.load", request);
    cache.load(db_path);
  }
  m["core.cache.load_ms"] = ms_since(t0);
  const std::string copy = db_path + ".saved";
  t0 = std::chrono::steady_clock::now();
  {
    Tracer::Scope s(tracer, "core.cache.save", request);
    cache.save(copy);
  }
  m["core.cache.save_ms"] = ms_since(t0);
  std::error_code ec;
  m["core.cache.rows"] = static_cast<double>(cache.num_rows());
  m["core.cache.db_bytes"] =
      static_cast<double>(std::filesystem::file_size(db_path, ec));
  std::filesystem::remove(copy, ec);
  return m;
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"sim.run.self_ms", "ms"},
      {"sim.run.share", "ratio"},
      {"sim.settles", "count"},
      {"sim.evals_per_settle", "ratio"},
      {"sim.eval_ratio", "ratio"},
      {"sim.settles_per_s", "1/s"},
      {"sim.equivalence.self_ms", "ms"},
      {"sim.equivalence.share", "ratio"},
      {"sim.equivalence.computations", "count"},
      {"core.synthesize.self_ms", "ms"},
      {"core.synthesize.share", "ratio"},
      {"core.synthesize.calls", "count"},
      {"sim.build.self_ms", "ms"},
      {"sim.stimulus.self_ms", "ms"},
      {"power.attribution.self_ms", "ms"},
      {"power.estimate.self_ms", "ms"},
      {"core.explore.overhead_ms", "ms"},
      {"util.pool.speedup", "ratio"},
      {"util.pool.efficiency", "ratio"},
      {"core.search.full_evaluations", "count"},
      {"core.search.aborted", "count"},
      {"core.search.deduped", "count"},
      {"core.search.sim_steps", "count"},
      {"core.search.front_yield", "ratio"},
      {"core.cache.rows", "count"},
      {"core.cache.db_bytes", "bytes"},
      {"core.cache.load_ms", "ms"},
      {"core.cache.save_ms", "ms"},
      {"core.serve.hit_ratio", "ratio"},
      {"core.serve.computed", "count"},
      {"core.serve.joined", "count"}};
  return kMetrics;
}

}  // namespace perfbench
