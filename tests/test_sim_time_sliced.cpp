// Correctness spine of the time-sliced run(): one stream cut into lane
// segments and simulated in one bit-sliced pass must be indistinguishable
// from the scalar EventDriven run of the same stream — outputs, the full
// Activity record, the PhaseHeatmap and the end state bit for bit, and the
// PowerProbe's waveform, domain totals, step histogram and crest bit for
// bit too (probe energy is exact fixed-point, so summation order cannot
// matter) — crest both with every per-step record kept and with none, the
// bound-pruned path explore() runs. The scalar
// reference is forced through testing::ScopedTimeSlicedThreshold, the
// seam that also forces the time-sliced side below its dispatch
// threshold. Covered: every suite benchmark x design styles x clock counts
// x latch/DFF, 300 fuzz graphs, stream lengths around the threshold and
// the lane count, budget prefixes, repeated runs on one Simulator,
// explore() reports, and the deadline / fault-injection failure paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "core/explorer.hpp"
#include "core/record.hpp"
#include "core/shard.hpp"
#include "core/synthesizer.hpp"
#include "dfg/random_graph.hpp"
#include "obs/obs.hpp"
#include "power/attribution.hpp"
#include "power/estimator.hpp"
#include "power/report.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "suite/benchmarks.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace mcrtl::sim {
namespace {

using core::DesignStyle;
using testing::ScopedTimeSlicedThreshold;

constexpr std::size_t kAlwaysScalar = std::numeric_limits<std::size_t>::max();
constexpr std::size_t kAlwaysSliced = 1;

struct StyleCase {
  std::string label;
  core::SynthesisOptions opts;
};

// Both conventional styles, multi-clock n = 1..4 with latches and with
// DFFs, the split allocator and operand isolation.
std::vector<StyleCase> styles() {
  std::vector<StyleCase> out;
  {
    StyleCase s{"conv_nongated", {}};
    s.opts.style = DesignStyle::ConventionalNonGated;
    out.push_back(s);
  }
  {
    StyleCase s{"conv_gated", {}};
    s.opts.style = DesignStyle::ConventionalGated;
    out.push_back(s);
  }
  for (int n : {1, 2, 3, 4}) {
    for (bool latches : {true, false}) {
      StyleCase s{std::string(latches ? "multi_latch_n" : "multi_dff_n") +
                      std::to_string(n),
                  {}};
      s.opts.style = DesignStyle::MultiClock;
      s.opts.num_clocks = n;
      s.opts.use_latches = latches;
      out.push_back(s);
    }
  }
  {
    StyleCase s{"multi_split_n3", {}};
    s.opts.style = DesignStyle::MultiClock;
    s.opts.num_clocks = 3;
    s.opts.method = core::AllocMethod::Split;
    out.push_back(s);
  }
  {
    StyleCase s{"multi_isolation_n2", {}};
    s.opts.style = DesignStyle::MultiClock;
    s.opts.num_clocks = 2;
    s.opts.operand_isolation = true;
    out.push_back(s);
  }
  return out;
}

/// Everything one run() exposes, plus the end state it leaves behind: the
/// net vectors of every step of a scalar follow-up run (the observer keeps
/// that run scalar).
struct Observed {
  SimResult result;
  PhaseHeatmap heatmap;
  std::vector<double> waveform;       // steps x (domains + 1)
  std::vector<double> domain_totals;  // domains + 1
  obs::HistogramStats histogram;
  double crest = 0.0;       // probe keeping every per-step record
  double bare_crest = 0.0;  // probe keeping none, as explore() attaches it
  std::uint64_t settles = 0;
  std::vector<std::vector<std::uint64_t>> follow_up;
};

/// Run `stream` (with `budget`, 0 = none) on a fresh simulator under the
/// time-sliced threshold `threshold`, with heatmap and probe attached.
Observed observe(const rtl::Design& design, const dfg::Graph& graph,
                 const InputStream& stream, std::size_t budget,
                 std::size_t threshold, const InputStream& follow) {
  Observed o;
  const ScopedTimeSlicedThreshold seam(threshold);
  Simulator sim(design);
  const power::Attribution attribution(design, power::TechLibrary::cmos08(),
                                       power::PowerParams{}.vdd);
  PowerProbe probe(attribution.energy_model(),
                   PowerProbe::kWaveform | PowerProbe::kStepHistogram);
  sim.set_heatmap(&o.heatmap);
  sim.set_power_probe(&probe);
  sim.set_computation_budget(budget);
  o.result = sim.run(stream, graph.inputs(), graph.outputs());
  o.settles = sim.kernel_stats().settles;
  for (std::size_t s = 0; s < probe.steps(); ++s) {
    for (int d = 0; d <= probe.num_domains(); ++d) {
      o.waveform.push_back(probe.step_fj(s, d));
    }
  }
  for (int d = 0; d <= probe.num_domains(); ++d) {
    o.domain_totals.push_back(probe.domain_total_fj(d));
  }
  o.histogram = probe.step_histogram();
  o.crest = probe.crest();
  {
    Simulator bare(design);
    PowerProbe bare_probe(attribution.energy_model());
    bare.set_power_probe(&bare_probe);
    bare.set_computation_budget(budget);
    bare.run(stream, graph.inputs(), graph.outputs());
    o.bare_crest = bare_probe.crest();
    EXPECT_EQ(bare_probe.total_fj(), probe.total_fj());
  }
  sim.set_computation_budget(0);
  sim.set_heatmap(nullptr);
  sim.set_power_probe(nullptr);
  sim.set_observer([&](std::uint64_t, const std::vector<std::uint64_t>& nets) {
    o.follow_up.push_back(nets);
  });
  sim.run(follow, graph.inputs(), graph.outputs());
  return o;
}

void expect_same(const Observed& sliced, const Observed& scalar,
                 const std::string& what) {
  EXPECT_EQ(sliced.result.outputs, scalar.result.outputs) << what;
  const Activity& a = sliced.result.activity;
  const Activity& b = scalar.result.activity;
  EXPECT_EQ(a.net_toggles, b.net_toggles) << what;
  EXPECT_EQ(a.storage_clock_events, b.storage_clock_events) << what;
  EXPECT_EQ(a.storage_write_toggles, b.storage_write_toggles) << what;
  EXPECT_EQ(a.phase_pulses, b.phase_pulses) << what;
  EXPECT_EQ(a.steps, b.steps) << what;
  EXPECT_EQ(a.computations, b.computations) << what;
  EXPECT_EQ(sliced.heatmap.num_phases, scalar.heatmap.num_phases) << what;
  EXPECT_EQ(sliced.heatmap.period, scalar.heatmap.period) << what;
  EXPECT_EQ(sliced.heatmap.write_toggles, scalar.heatmap.write_toggles)
      << what;
  EXPECT_EQ(sliced.heatmap.clock_events, scalar.heatmap.clock_events) << what;
  EXPECT_EQ(sliced.waveform, scalar.waveform) << what << " waveform";
  EXPECT_EQ(sliced.domain_totals, scalar.domain_totals) << what;
  EXPECT_EQ(sliced.histogram.count, scalar.histogram.count) << what;
  EXPECT_EQ(sliced.histogram.buckets, scalar.histogram.buckets) << what;
  EXPECT_EQ(sliced.histogram.min, scalar.histogram.min) << what;
  EXPECT_EQ(sliced.histogram.max, scalar.histogram.max) << what;
  EXPECT_EQ(sliced.histogram.sum, scalar.histogram.sum) << what;
  EXPECT_EQ(sliced.crest, scalar.crest) << what;
  EXPECT_EQ(sliced.bare_crest, scalar.crest) << what << " bare probe";
  EXPECT_EQ(scalar.bare_crest, scalar.crest) << what << " bare probe";
  EXPECT_EQ(sliced.follow_up, scalar.follow_up) << what << " end state";
}

/// Time-sliced (under `threshold`) vs scalar (forced) on one stream. Runs
/// of 3+ computations at or above the threshold must show the sliced
/// path's signature: fewer settles than one pair per step.
void differential_check(const rtl::Design& design, const dfg::Graph& graph,
                        const InputStream& stream, std::size_t budget,
                        const std::string& what,
                        std::size_t threshold = kAlwaysSliced) {
  Rng frng(stream.size() * 31 + budget);
  const InputStream follow =
      uniform_stream(frng, graph.inputs().size(), 5, graph.width());
  const Observed sliced =
      observe(design, graph, stream, budget, threshold, follow);
  const Observed scalar =
      observe(design, graph, stream, budget, kAlwaysScalar, follow);
  expect_same(sliced, scalar, what);
  const std::size_t limit =
      budget > 0 ? std::min(budget, stream.size()) : stream.size();
  if (limit >= 3 && limit >= threshold) {
    EXPECT_LT(sliced.settles, scalar.settles) << what << " did not slice";
  }
}

TEST(SimTimeSlicedTest, OneComputationWarmsUpEverySynthesizedSuiteDesign) {
  for (const auto& name : suite::all_names()) {
    const auto b = suite::by_name(name, 4);
    for (const auto& style : styles()) {
      const auto syn = core::synthesize(*b.graph, *b.schedule, style.opts);
      Simulator sim(*syn.design);
      EXPECT_TRUE(sim.one_computation_warmup()) << name << "/" << style.label;
    }
  }
}

TEST(SimTimeSlicedTest, DataDrivenSelectNeedsMoreThanOneComputationOfWarmup) {
  // Rewire one mux select to a storage output: the lane state then depends
  // on data the warm-up analysis cannot vouch for, so run() must stay
  // scalar for this netlist.
  const auto b = suite::by_name("hal", 4);
  core::SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 2;
  auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  auto& comps = const_cast<std::vector<rtl::Component>&>(
      syn.design->netlist.components());
  rtl::NetId storage_out;
  for (const auto& c : comps) {
    if (rtl::is_storage(c.kind)) storage_out = c.output;
  }
  for (auto& c : comps) {
    if (c.kind == rtl::CompKind::Mux) {
      c.select = storage_out;
      break;
    }
  }
  Simulator sim(*syn.design);
  EXPECT_FALSE(sim.one_computation_warmup());
}

TEST(SimTimeSlicedTest, MatchesScalarOnEverySuiteBenchmarkAndStyle) {
  for (const auto& name : suite::all_names()) {
    const auto b = suite::by_name(name, 4);
    for (const auto& style : styles()) {
      const auto syn = core::synthesize(*b.graph, *b.schedule, style.opts);
      Rng rng(2024);
      const auto stream =
          uniform_stream(rng, b.graph->inputs().size(), 200, 4);
      differential_check(*syn.design, *b.graph, stream, 0,
                         name + "/" + style.label);
    }
  }
}

TEST(SimTimeSlicedTest, MatchesScalarOnFuzzGraphs) {
  const auto grid = styles();
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng grng(seed * 7919);
    dfg::RandomGraphConfig gcfg;
    gcfg.num_inputs = 2 + static_cast<unsigned>(grng.next_below(4));
    gcfg.num_nodes = 8 + static_cast<unsigned>(grng.next_below(16));
    gcfg.width = 4 + static_cast<unsigned>(grng.next_below(13));
    const dfg::Graph g = dfg::random_graph(grng, gcfg);
    const dfg::Schedule s = dfg::schedule_asap(g);
    const auto& style = grid[seed % grid.size()];
    const auto syn = core::synthesize(g, s, style.opts);
    Rng srng(seed);
    const auto stream = uniform_stream(
        srng, g.inputs().size(), 70 + grng.next_below(60), gcfg.width);
    std::ostringstream what;
    what << "graph_seed=" << seed << " " << style.label;
    Simulator warm_check(*syn.design);
    EXPECT_TRUE(warm_check.one_computation_warmup()) << what.str();
    differential_check(*syn.design, g, stream, 0, what.str());
  }
}

struct Fixture {
  suite::Benchmark bench = suite::by_name("facet", 4);
  core::Synthesized syn;
  Fixture(int clocks, bool latches) {
    core::SynthesisOptions opts;
    opts.style = DesignStyle::MultiClock;
    opts.num_clocks = clocks;
    opts.use_latches = latches;
    syn = core::synthesize(*bench.graph, *bench.schedule, opts);
  }
  InputStream stream(std::size_t n, std::uint64_t seed) const {
    Rng rng(seed);
    return uniform_stream(rng, bench.graph->inputs().size(), n, 4);
  }
};

TEST(SimTimeSlicedTest, DispatchThresholdAndStreamLengths) {
  const Fixture f(3, true);
  const rtl::Design& d = *f.syn.design;
  const std::uint64_t P = static_cast<std::uint64_t>(d.clocks.period());
  const std::size_t min = Simulator::kTimeSlicedMinComputations;
  // Below the threshold the default dispatch stays scalar (2 preamble
  // settles + 2 per step); at the threshold it slices.
  for (std::size_t n : {min - 1, min}) {
    const auto stream = f.stream(n, n);
    Simulator sim(d);
    const SimResult r = sim.run(stream, f.bench.graph->inputs(),
                                f.bench.graph->outputs());
    EXPECT_EQ(r.activity.computations, n);
    if (n < min) {
      EXPECT_EQ(sim.kernel_stats().settles, 2 + 2 * n * P) << n;
    } else {
      EXPECT_LT(sim.kernel_stats().settles, 2 + 2 * n * P) << n;
    }
    differential_check(d, *f.bench.graph, stream, 0,
                       "default dispatch n=" + std::to_string(n),
                       Simulator::kTimeSlicedMinComputations);
  }
  // Fewer computations than lanes, and 64k +- 1.
  for (std::size_t n : {2u, 3u, 5u, 17u, 63u, 65u, 129u}) {
    differential_check(d, *f.bench.graph, f.stream(n, n), 0,
                       "short n=" + std::to_string(n));
  }
  for (std::size_t n : {65535u, 65537u}) {
    differential_check(d, *f.bench.graph, f.stream(n, n), 0,
                       "long n=" + std::to_string(n));
  }
}

TEST(SimTimeSlicedTest, BudgetPrefixesMatchScalar) {
  for (bool latches : {true, false}) {
    const Fixture f(2, latches);
    const auto stream = f.stream(500, 77);
    for (std::size_t budget :
         {1u, 2u, 63u, 64u, 65u, 130u, 499u, 500u, 501u, 10000u}) {
      differential_check(*f.syn.design, *f.bench.graph, stream, budget,
                         "budget=" + std::to_string(budget) +
                             (latches ? " latch" : " dff"));
    }
  }
}

TEST(SimTimeSlicedTest, RepeatedRunsOnOneSimulatorMatchScalar) {
  // State persists across run() calls; interleave time-sliced runs (long
  // streams, budgeted prefixes) with scalar ones (short streams) on one
  // simulator and replay the same sequence on an all-scalar simulator.
  const Fixture f(4, false);
  const auto in = f.bench.graph->inputs();
  const auto out = f.bench.graph->outputs();
  struct Call {
    std::size_t n, budget;
  };
  const std::vector<Call> calls = {
      {300, 0}, {20, 0}, {300, 77}, {150, 0}, {5, 0}, {1000, 999}};
  Simulator mixed(*f.syn.design);
  std::vector<SimResult> got;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    mixed.set_computation_budget(calls[i].budget);
    got.push_back(mixed.run(f.stream(calls[i].n, i), in, out));
  }
  const ScopedTimeSlicedThreshold scalar(kAlwaysScalar);
  Simulator ref(*f.syn.design);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    ref.set_computation_budget(calls[i].budget);
    const SimResult want = ref.run(f.stream(calls[i].n, i), in, out);
    EXPECT_EQ(got[i].outputs, want.outputs) << "call " << i;
    EXPECT_EQ(got[i].activity.net_toggles, want.activity.net_toggles)
        << "call " << i;
    EXPECT_EQ(got[i].activity.storage_write_toggles,
              want.activity.storage_write_toggles)
        << "call " << i;
    EXPECT_EQ(got[i].activity.storage_clock_events,
              want.activity.storage_clock_events)
        << "call " << i;
    EXPECT_EQ(got[i].activity.steps, want.activity.steps) << "call " << i;
  }
}

TEST(SimTimeSlicedTest, ObservabilityCountsOnlyCountedSteps) {
  const Fixture f(2, true);
  const auto stream = f.stream(400, 5);
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  Simulator sim(*f.syn.design);
  const SimResult r =
      sim.run(stream, f.bench.graph->inputs(), f.bench.graph->outputs());
  obs::set_enabled(false);
  std::map<std::string, std::uint64_t> c;
  for (const auto& [k, v] : obs::Registry::instance().counters()) c[k] = v;
  obs::Registry::instance().reset();
  EXPECT_EQ(c["sim.time_sliced.runs"], 1u);
  EXPECT_EQ(c["sim.runs"], 1u);
  EXPECT_EQ(c["sim.steps"], r.activity.steps);
  EXPECT_EQ(r.activity.steps,
            400u * static_cast<std::uint64_t>(f.syn.design->clocks.period()));
  EXPECT_GE(c["sim.time_sliced.lane_steps"], c["sim.steps"]);
}

std::string report(const core::ExplorationResult& r, const char* name,
                   const core::ExplorerConfig& cfg, bool json) {
  const auto recs =
      core::explore_records(r, name, 4, cfg.computations, cfg.streams);
  return json ? power::to_json(recs) : power::to_csv(recs);
}

TEST(SimTimeSlicedTest, ExploreReportsAreByteIdenticalToScalar) {
  for (const char* name : {"hal", "biquad", "ewf"}) {
    const auto b = suite::by_name(name, 4);
    core::ExplorerConfig cfg;
    cfg.max_clocks = 4;
    cfg.include_dff_variant = true;
    cfg.computations = 300;
    cfg.jobs = 2;
    const auto sliced = core::explore(*b.graph, *b.schedule, cfg);
    core::ExplorationResult scalar;
    {
      const ScopedTimeSlicedThreshold seam(kAlwaysScalar);
      scalar = core::explore(*b.graph, *b.schedule, cfg);
    }
    EXPECT_EQ(report(sliced, name, cfg, false), report(scalar, name, cfg, false))
        << name;
    EXPECT_EQ(report(sliced, name, cfg, true), report(scalar, name, cfg, true))
        << name;
    ASSERT_EQ(sliced.points.size(), scalar.points.size());
    for (std::size_t i = 0; i < sliced.points.size(); ++i) {
      // Journal/cache records carry every field exactly (crest included).
      EXPECT_EQ(core::record::encode_point_fields(sliced.points[i]),
                core::record::encode_point_fields(scalar.points[i]))
          << name << " point " << i;
    }
  }
}

// ---- failure paths ---------------------------------------------------------

class TimeSlicedFailureTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
  static void reset() {
    fault::set_enabled(false);
    fault::Injector::instance().reset();
  }
};

core::ExplorerConfig failure_config() {
  core::ExplorerConfig cfg;
  cfg.max_clocks = 3;
  cfg.computations = 400;  // above the dispatch threshold: time-sliced
  cfg.jobs = 1;
  cfg.max_retries = 1;
  cfg.quarantine = true;
  return cfg;
}

TEST_F(TimeSlicedFailureTest, DeadlineFiresOnTheTimeSlicedPath) {
  const Fixture f(2, true);
  Simulator sim(*f.syn.design);
  sim.set_deadline(std::chrono::steady_clock::now() - std::chrono::seconds(1));
  try {
    sim.run(f.stream(400, 1), f.bench.graph->inputs(),
            f.bench.graph->outputs());
    FAIL() << "expected a TimeoutError";
  } catch (const TimeoutError& e) {
    EXPECT_NE(std::string(e.what()).find("time-sliced"), std::string::npos)
        << e.what();
  }
}

TEST_F(TimeSlicedFailureTest, PointTimeoutIsRetriedAndQuarantinedAsScalar) {
  const auto b = suite::by_name("facet", 4);
  auto cfg = failure_config();
  cfg.point_timeout_s = 1e-9;  // every point's deadline passes at once
  const auto sliced = core::explore(*b.graph, *b.schedule, cfg);
  core::ExplorationResult scalar;
  {
    const ScopedTimeSlicedThreshold seam(kAlwaysScalar);
    scalar = core::explore(*b.graph, *b.schedule, cfg);
  }
  ASSERT_FALSE(sliced.failed_points.empty());
  ASSERT_EQ(sliced.failed_points.size(), scalar.failed_points.size());
  EXPECT_EQ(sliced.points.size(), scalar.points.size());
  for (std::size_t i = 0; i < sliced.failed_points.size(); ++i) {
    const auto& a = sliced.failed_points[i];
    const auto& s = scalar.failed_points[i];
    EXPECT_EQ(a.label, s.label);
    EXPECT_EQ(a.attempts, s.attempts);
    EXPECT_EQ(a.attempts, cfg.max_retries + 1);
    EXPECT_NE(a.error.find("time-sliced"), std::string::npos) << a.error;
    EXPECT_NE(a.error.find("deadline"), std::string::npos) << a.error;
  }
}

TEST_F(TimeSlicedFailureTest, SimRunFaultIsRetriedAndQuarantinedAsScalar) {
  const auto b = suite::by_name("hal", 4);
  const auto baseline = core::explore(*b.graph, *b.schedule, failure_config());
  fault::set_enabled(true);
  // A transient fault retries to the identical result...
  fault::ArmSpec once;
  once.mode = fault::ArmSpec::Mode::FirstK;
  once.k = 1;
  fault::Injector::instance().arm("sim.run", once);
  const auto retried = core::explore(*b.graph, *b.schedule, failure_config());
  EXPECT_TRUE(retried.failed_points.empty());
  ASSERT_EQ(retried.points.size(), baseline.points.size());
  for (std::size_t i = 0; i < retried.points.size(); ++i) {
    EXPECT_EQ(core::record::encode_point_fields(retried.points[i]),
              core::record::encode_point_fields(baseline.points[i]));
  }
  // ...and a persistent one quarantines every point after its retries.
  fault::Injector::instance().reset();
  fault::ArmSpec always;
  always.mode = fault::ArmSpec::Mode::Always;
  fault::Injector::instance().arm("sim.run", always);
  const auto cfg = failure_config();
  const auto failed = core::explore(*b.graph, *b.schedule, cfg);
  EXPECT_TRUE(failed.points.empty());
  EXPECT_EQ(failed.failed_points.size(), core::num_configurations(cfg));
  for (const auto& fp : failed.failed_points) {
    EXPECT_EQ(fp.attempts, cfg.max_retries + 1);
    EXPECT_NE(fp.error.find("injected fault"), std::string::npos);
  }
}

}  // namespace
}  // namespace mcrtl::sim
