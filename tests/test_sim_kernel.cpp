// The event-driven settle kernel's correctness spine: it must produce
// bit-identical Activity, outputs and PhaseHeatmap records to the retained
// oblivious reference kernel (Simulator::Mode::Oblivious) on every design —
// the clock-management *and* the kernel machinery are only allowed to change
// how fast things are computed, never what is counted. Covered here across
// all four paper benchmarks x design styles x clock counts, plus randomized
// graphs from the fuzz generator, plus the work-accounting invariants the
// perf-smoke CI guard relies on.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <vector>

#include "core/synthesizer.hpp"
#include "dfg/random_graph.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "suite/benchmarks.hpp"
#include "util/rng.hpp"

namespace mcrtl::sim {
namespace {

using core::AllocMethod;
using core::DesignStyle;

struct StyleCase {
  std::string label;
  core::SynthesisOptions opts;
};

std::vector<StyleCase> kernel_styles() {
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
    StyleCase s{"multi_int_latch_n" + std::to_string(n), {}};
    s.opts.style = DesignStyle::MultiClock;
    s.opts.num_clocks = n;
    out.push_back(s);
  }
  for (int n : {2, 3}) {
    StyleCase s{"multi_split_latch_n" + std::to_string(n), {}};
    s.opts.style = DesignStyle::MultiClock;
    s.opts.num_clocks = n;
    s.opts.method = AllocMethod::Split;
    out.push_back(s);
  }
  for (int n : {2, 4}) {
    StyleCase s{"multi_int_dff_n" + std::to_string(n), {}};
    s.opts.style = DesignStyle::MultiClock;
    s.opts.num_clocks = n;
    s.opts.use_latches = false;
    out.push_back(s);
  }
  {
    StyleCase s{"multi_int_isolation_n2", {}};
    s.opts.style = DesignStyle::MultiClock;
    s.opts.num_clocks = 2;
    s.opts.operand_isolation = true;
    out.push_back(s);
  }
  return out;
}

void expect_identical_activity(const Activity& a, const Activity& b,
                               const std::string& what) {
  EXPECT_EQ(a.net_toggles, b.net_toggles) << what;
  EXPECT_EQ(a.storage_clock_events, b.storage_clock_events) << what;
  EXPECT_EQ(a.storage_write_toggles, b.storage_write_toggles) << what;
  EXPECT_EQ(a.phase_pulses, b.phase_pulses) << what;
  EXPECT_EQ(a.steps, b.steps) << what;
  EXPECT_EQ(a.computations, b.computations) << what;
}

/// Simulate `design` with both kernels over `stream` and assert every
/// observable record is bit-identical. Also asserts the work accounting:
/// the event-driven kernel never evaluates more components than the
/// oblivious one would over the same settle() calls.
void differential_check(const rtl::Design& design, const dfg::Graph& graph,
                        const InputStream& stream, const std::string& what) {
  // The scalar event kernel itself is under test; long runs would take the
  // time-sliced path (differentially tested in test_sim_time_sliced.cpp).
  const testing::ScopedTimeSlicedThreshold scalar(
      std::numeric_limits<std::size_t>::max());
  Simulator ev(design);  // EventDriven is the default
  Simulator ob(design, Simulator::Mode::Oblivious);
  ASSERT_EQ(ev.mode(), Simulator::Mode::EventDriven);
  PhaseHeatmap hm_ev, hm_ob;
  ev.set_heatmap(&hm_ev);
  ob.set_heatmap(&hm_ob);
  const auto in = graph.inputs();
  const auto out = graph.outputs();
  const SimResult rev = ev.run(stream, in, out);
  const SimResult rob = ob.run(stream, in, out);

  EXPECT_EQ(rev.outputs, rob.outputs) << what;
  expect_identical_activity(rev.activity, rob.activity, what);
  EXPECT_EQ(hm_ev.num_phases, hm_ob.num_phases) << what;
  EXPECT_EQ(hm_ev.period, hm_ob.period) << what;
  EXPECT_EQ(hm_ev.write_toggles, hm_ob.write_toggles) << what;
  EXPECT_EQ(hm_ev.clock_events, hm_ob.clock_events) << what;

  const auto& sev = ev.kernel_stats();
  const auto& sob = ob.kernel_stats();
  EXPECT_EQ(sev.settles, sob.settles) << what;
  EXPECT_EQ(sob.evals, sob.oblivious_evals) << what;
  EXPECT_EQ(sev.oblivious_evals, sob.oblivious_evals) << what;
  EXPECT_LE(sev.evals, sev.oblivious_evals) << what;
}

TEST(SimKernelTest, EventDrivenMatchesObliviousOnAllSuiteBenchmarks) {
  for (const char* name : {"facet", "hal", "biquad", "bandpass"}) {
    const auto b = suite::by_name(name, 4);
    for (const auto& style : kernel_styles()) {
      const auto syn = core::synthesize(*b.graph, *b.schedule, style.opts);
      Rng rng(101);
      const auto stream =
          uniform_stream(rng, b.graph->inputs().size(), 60, 4);
      differential_check(*syn.design, *b.graph, stream,
                         std::string(name) + "/" + style.label);
    }
  }
}

TEST(SimKernelTest, EventDrivenMatchesObliviousOnFuzzGraphs) {
  for (std::uint64_t seed : {4101u, 4102u, 4103u, 4104u, 4105u, 4106u}) {
    Rng grng(seed);
    dfg::RandomGraphConfig gcfg;
    gcfg.num_inputs = 2 + static_cast<unsigned>(grng.next_below(4));
    gcfg.num_nodes = 8 + static_cast<unsigned>(grng.next_below(16));
    gcfg.width = 4 + static_cast<unsigned>(grng.next_below(13));
    const dfg::Graph g = dfg::random_graph(grng, gcfg);
    const dfg::Schedule s = dfg::schedule_asap(g);
    for (const auto& style : kernel_styles()) {
      const auto syn = core::synthesize(g, s, style.opts);
      Rng srng(seed * 0x9E3779B97F4A7C15ull + 7);
      const auto stream =
          uniform_stream(srng, g.inputs().size(), 30, gcfg.width);
      std::ostringstream what;
      what << "graph_seed=" << seed << " " << style.label;
      differential_check(*syn.design, g, stream, what.str());
    }
  }
}

TEST(SimKernelTest, EventDrivenSkipsWorkOnMultiClockDesigns) {
  // The sparsity argument made quantitative: with n non-overlapping clocks
  // only ~1/n of the datapath sees new values per master cycle, so the
  // event-driven kernel must actually evaluate strictly fewer components
  // than the oblivious sweep on every n >= 2 configuration.
  const auto b = suite::by_name("hal", 4);
  for (int n : {2, 3, 4}) {
    core::SynthesisOptions opts;
    opts.style = DesignStyle::MultiClock;
    opts.num_clocks = n;
    const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
    const testing::ScopedTimeSlicedThreshold scalar(
        std::numeric_limits<std::size_t>::max());
    Simulator ev(*syn.design);
    Rng rng(55);
    const auto stream = uniform_stream(rng, b.graph->inputs().size(), 40, 4);
    ev.run(stream, b.graph->inputs(), b.graph->outputs());
    const auto& st = ev.kernel_stats();
    EXPECT_LT(st.evals, st.oblivious_evals) << "n=" << n;
  }
}

TEST(SimKernelTest, RepeatedRunsOnOneSimulatorStayIdentical) {
  // run() may be called repeatedly on one Simulator (net/storage state
  // persists); the event kernel's worklist must reset cleanly via the
  // full-dirty preamble so a second run still matches the oblivious
  // kernel's second run.
  const auto b = suite::by_name("facet", 4);
  core::SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 3;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  Simulator ev(*syn.design);
  Simulator ob(*syn.design, Simulator::Mode::Oblivious);
  Rng r1(9), r2(9);
  const auto s1 = uniform_stream(r1, b.graph->inputs().size(), 25, 4);
  const auto s2 = uniform_stream(r2, b.graph->inputs().size(), 25, 4);
  for (int round = 0; round < 2; ++round) {
    const auto rev = ev.run(s1, b.graph->inputs(), b.graph->outputs());
    const auto rob = ob.run(s2, b.graph->inputs(), b.graph->outputs());
    EXPECT_EQ(rev.outputs, rob.outputs) << "round " << round;
    expect_identical_activity(rev.activity, rob.activity,
                              "round " + std::to_string(round));
  }
}

}  // namespace
}  // namespace mcrtl::sim
