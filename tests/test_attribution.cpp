// Tests for the hierarchical power-attribution subsystem: conservation of
// toggles and energy between the three accounting views (per-net
// attribution rows, the live PowerProbe waveform, the whole-run
// estimator), the observe-only contract of the probe, and the per-domain
// waveform's one-active-partition signature.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/synthesizer.hpp"
#include "dfg/random_graph.hpp"
#include "obs/obs.hpp"
#include "power/attribution.hpp"
#include "power/estimator.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "suite/benchmarks.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mcrtl::power {
namespace {

using core::DesignStyle;

// Relative FP tolerance for energy sums: the three views add the same
// products in different orders, so they agree to rounding, not bit-exactly.
void expect_near_rel(double a, double b, double rel = 1e-9) {
  EXPECT_NEAR(a, b, rel * std::max({1.0, std::abs(a), std::abs(b)}));
}

struct Run {
  core::Synthesized syn;
  sim::SimResult result;
};

Run run_bench(const suite::Benchmark& b, DesignStyle style, int clocks,
              std::size_t computations = 300, sim::PowerProbe* probe = nullptr,
              const sim::EnergyModel** model_out = nullptr) {
  core::SynthesisOptions opts;
  opts.style = style;
  opts.num_clocks = clocks;
  Run r{core::synthesize(*b.graph, *b.schedule, opts), {}};
  Rng rng(1234);
  const auto stream = sim::uniform_stream(rng, b.graph->inputs().size(),
                                          computations, b.graph->width());
  sim::Simulator s(*r.syn.design);
  if (probe) s.set_power_probe(probe);
  (void)model_out;
  r.result = s.run(stream, b.graph->inputs(), b.graph->outputs());
  return r;
}

std::uint64_t activity_toggles(const sim::Activity& a) {
  std::uint64_t sum = 0;
  for (auto t : a.net_toggles) sum += t;
  return sum;
}

// --- conservation across all paper benchmarks and both styles ------------

TEST(AttributionTest, ConservesTogglesAndEnergyAcrossSuite) {
  const TechLibrary tech = TechLibrary::cmos08();
  for (const char* name : {"facet", "hal", "biquad", "bandpass"}) {
    const auto b = suite::by_name(name, 4);
    for (const auto& [style, clocks] :
         {std::pair{DesignStyle::ConventionalGated, 1},
          std::pair{DesignStyle::MultiClock, 3}}) {
      SCOPED_TRACE(std::string(name) + " clocks=" + std::to_string(clocks));
      core::SynthesisOptions opts;
      opts.style = style;
      opts.num_clocks = clocks;
      const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
      Attribution attr(*syn.design, tech);
      sim::PowerProbe probe(attr.energy_model());
      sim::Simulator s(*syn.design);
      s.set_power_probe(&probe);
      Rng rng(1234);
      const auto stream = sim::uniform_stream(rng, b.graph->inputs().size(),
                                              300, b.graph->width());
      const auto res = s.run(stream, b.graph->inputs(), b.graph->outputs());
      const auto rep = attr.attribute(res.activity);

      // Integer toggle conservation is EXACT: the component rows repartition
      // Activity::net_toggles without loss (tree pseudo-rows count pulses,
      // not net toggles, so they are excluded).
      std::uint64_t row_toggles = 0;
      double row_fj = 0.0;
      for (const auto& row : rep.rows) {
        if (row.group != "clock_tree") row_toggles += row.toggles;
        row_fj += row.energy_fj;
      }
      EXPECT_EQ(row_toggles, activity_toggles(res.activity));
      EXPECT_EQ(rep.total_toggles, activity_toggles(res.activity));
      EXPECT_EQ(rep.steps, res.activity.steps);

      // Every attributed femtojoule lands in exactly one row, one domain
      // and one category.
      expect_near_rel(row_fj, rep.total_fj);
      double domain_fj = 0.0;
      for (double d : rep.domain_fj) domain_fj += d;
      expect_near_rel(domain_fj, rep.total_fj);
      const double cat_fj = rep.category.combinational_fj +
                            rep.category.storage_fj +
                            rep.category.clock_tree_fj +
                            rep.category.control_fj + rep.category.io_fj;
      expect_near_rel(cat_fj, rep.total_fj);

      // The live probe saw the same run: totals and per-domain sums agree.
      expect_near_rel(probe.total_fj(), rep.total_fj);
      ASSERT_EQ(rep.domain_fj.size(),
                static_cast<std::size_t>(probe.num_domains()) + 1);
      for (int d = 0; d <= probe.num_domains(); ++d) {
        expect_near_rel(probe.domain_total_fj(d), rep.domain_fj[d]);
      }

      // The estimator's mW breakdown is the same accounting at the
      // operating point: bridge via P = E * f / steps.
      const PowerParams pp;
      const auto pb = estimate_power(*syn.design, res.activity, tech, pp);
      const double scale =
          pp.f_master / static_cast<double>(res.activity.steps) * 1e-12;
      expect_near_rel(rep.total_mw(pp.f_master), pb.total, 1e-6);
      expect_near_rel(rep.category.combinational_fj * scale, pb.combinational,
                      1e-6);
      expect_near_rel(rep.category.storage_fj * scale, pb.storage, 1e-6);
      expect_near_rel(rep.category.clock_tree_fj * scale, pb.clock_tree, 1e-6);
      expect_near_rel(rep.category.control_fj * scale, pb.control, 1e-6);
      expect_near_rel(rep.category.io_fj * scale, pb.io, 1e-6);
    }
  }
}

// --- the probe only observes ---------------------------------------------

TEST(AttributionTest, ProbeDoesNotPerturbSimulation) {
  const auto b = suite::hal(4);
  const TechLibrary tech = TechLibrary::cmos08();
  const auto plain = run_bench(b, DesignStyle::MultiClock, 3);
  Attribution attr(*plain.syn.design, tech);
  sim::PowerProbe probe(attr.energy_model());
  const auto probed = run_bench(b, DesignStyle::MultiClock, 3, 300, &probe);
  EXPECT_EQ(plain.result.outputs, probed.result.outputs);
  EXPECT_EQ(plain.result.activity.net_toggles,
            probed.result.activity.net_toggles);
  EXPECT_EQ(plain.result.activity.storage_clock_events,
            probed.result.activity.storage_clock_events);
  EXPECT_EQ(plain.result.activity.phase_pulses,
            probed.result.activity.phase_pulses);
  EXPECT_EQ(plain.result.activity.steps, probed.result.activity.steps);
}

// --- bit-sliced aggregation ----------------------------------------------

TEST(AttributionTest, SlicedProbeAggregatesExactlyAcrossStreams) {
  const auto b = suite::facet(4);
  const TechLibrary tech = TechLibrary::cmos08();
  core::SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 2;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  Attribution attr(*syn.design, tech);
  sim::PowerProbe probe(attr.energy_model());

  constexpr std::size_t kStreams = 8;
  const auto bundle =
      sim::uniform_streams(99, kStreams, b.graph->inputs().size(), 120, 4);
  sim::Simulator sl(*syn.design, sim::Simulator::Mode::BitSliced);
  sl.set_power_probe(&probe);
  const auto results =
      sl.run_sliced(bundle, b.graph->inputs(), b.graph->outputs());
  ASSERT_EQ(results.size(), kStreams);

  // The aggregate waveform the probe collected equals the sum of exact
  // per-stream attributions, and attribute(sum of activities) matches too.
  double per_stream_sum = 0.0;
  std::vector<sim::Activity> acts;
  for (const auto& r : results) {
    per_stream_sum += attr.attribute(r.activity).total_fj;
    acts.push_back(r.activity);
  }
  expect_near_rel(probe.total_fj(), per_stream_sum);
  const auto agg = attr.attribute(sim::sum_activities(acts));
  expect_near_rel(agg.total_fj, per_stream_sum);
}

// --- per-domain waveform signature ---------------------------------------

// The paper's scheme runs exactly one partition per phase; iso gates hold
// every other partition's inputs still. The per-domain waveform must show
// that block-diagonal shape: in (almost) every step all partition energy
// belongs to a single partition. Handoff steps (a register captures while
// the next phase starts) are allowed a small remainder.
TEST(AttributionTest, MultiClockWaveformIsBlockDiagonal) {
  const auto b = suite::hal(4);
  const TechLibrary tech = TechLibrary::cmos08();
  core::SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 3;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  Attribution attr(*syn.design, tech);
  sim::PowerProbe probe(attr.energy_model(), sim::PowerProbe::kWaveform);
  sim::Simulator s(*syn.design);
  s.set_power_probe(&probe);
  Rng rng(7);
  const auto stream =
      sim::uniform_stream(rng, b.graph->inputs().size(), 200, 4);
  s.run(stream, b.graph->inputs(), b.graph->outputs());

  double partition_total = 0.0, off_diagonal = 0.0;
  for (std::size_t step = 0; step < probe.steps(); ++step) {
    double step_max = 0.0, step_sum = 0.0;
    for (int d = 1; d <= probe.num_domains(); ++d) {
      const double e = probe.step_fj(step, d);
      step_sum += e;
      step_max = std::max(step_max, e);
    }
    partition_total += step_sum;
    off_diagonal += step_sum - step_max;
  }
  ASSERT_GT(partition_total, 0.0);
  // Off-diagonal (second-hottest-partition-and-below) energy is a small
  // fraction of partition energy; a design without isolation would spread
  // evaluation glitches across all partitions every step.
  EXPECT_LT(off_diagonal, 0.10 * partition_total);
}

// --- exact fixed-point units ---------------------------------------------

// A hand-built model driven through the probe's scalar hooks: every step's
// energy, the totals and the crest follow from integer arithmetic alone.
TEST(AttributionTest, HandComputedCrestInIntegerUnits) {
  sim::EnergyModel m;
  m.num_domains = 2;
  m.net_units = {3, 5};  // net 0 in domain 1, net 1 in domain 2
  m.net_domain = {1, 2};
  m.storage_clock_units = {2};
  m.storage_domain = {2};
  m.phase_pulse_units = {0, 7, 11};
  m.max_step_units = 2 * 3 + 2 * 5 + 2 + 7 + 11;
  sim::PowerProbe probe(m, sim::PowerProbe::kWaveform |
                               sim::PowerProbe::kStepHistogram);
  // Step 0: net 0 flips twice, phase 1 pulses      -> 2*3 + 7      = 13.
  probe.add_net(0, 2);
  probe.add_phase_pulse(1);
  probe.end_step();
  // Step 1: net 1 flips once, storage clocks, phase 2 -> 5 + 2 + 11 = 18.
  probe.add_net(1, 1);
  probe.add_storage_clock(0);
  probe.add_phase_pulse(2);
  probe.end_step();
  // Step 2: phase 1 pulses only                    -> 7.
  probe.add_phase_pulse(1);
  probe.end_step();

  const double unit = 1.0 / sim::EnergyModel::kUnitsPerFj;
  ASSERT_EQ(probe.steps(), 3u);
  EXPECT_EQ(probe.step_fj(0, 1), 13 * unit);
  EXPECT_EQ(probe.step_fj(1, 2), 18 * unit);
  EXPECT_EQ(probe.step_fj(2, 1), 7 * unit);
  EXPECT_EQ(probe.domain_total_fj(0), 0.0);
  EXPECT_EQ(probe.domain_total_fj(1), (6 + 7 + 7) * unit);
  EXPECT_EQ(probe.domain_total_fj(2), (5 + 2 + 11) * unit);
  EXPECT_EQ(probe.total_fj(), 38 * unit);
  // peak / mean = 18 / (38 / 3).
  EXPECT_EQ(probe.crest(), 18.0 / (38.0 / 3.0));
  const auto h = probe.step_histogram();
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.min, 7 * unit);
  EXPECT_EQ(h.max, 18 * unit);
  EXPECT_EQ(h.sum, 38 * unit);

  // The probe resets per run; a bare probe keeps no per-step record.
  sim::PowerProbe bare(m);
  EXPECT_FALSE(bare.keeps_waveform());
  EXPECT_THROW(bare.step_histogram(), Error);
  EXPECT_EQ(bare.crest(), 0.0);
}

// Every bit of every net toggling in both settles of every step, every
// storage element clocked and every phase pulsing: the model's worst-case
// step. The widest designs (64-bit suite datapaths, a large random DFG)
// must fit it — with room for a 64-lane aggregate — and the accumulators
// must carry it exactly over many steps.
TEST(AttributionTest, WidestDesignsWorstCaseStepFitsTheAccumulators) {
  const TechLibrary tech = TechLibrary::cmos08();
  std::int64_t worst = 0;
  auto check = [&](const rtl::Design& design, const std::string& what) {
    SCOPED_TRACE(what);
    const Attribution attr(design, tech);
    const sim::EnergyModel& m = attr.energy_model();
    ASSERT_GT(m.max_step_units, 0);
    ASSERT_LE(m.max_step_units, sim::EnergyModel::kMaxStepUnits);
    EXPECT_LE(m.max_step_units,
              std::numeric_limits<std::int64_t>::max() /
                  static_cast<std::int64_t>(sim::Simulator::kMaxStreams));
    const rtl::Netlist& nl = design.netlist;
    sim::PowerProbe probe(m);
    constexpr std::size_t kSteps = 1000;
    for (std::size_t step = 0; step < kSteps; ++step) {
      for (const auto& net : nl.nets()) {
        probe.add_net(net.id.index(), 2 * net.width);
      }
      for (const auto& c : nl.components()) {
        if (rtl::is_storage(c.kind)) probe.add_storage_clock(c.id.index());
      }
      for (int p = 1; p <= m.num_domains; ++p) probe.add_phase_pulse(p);
      probe.end_step();
    }
    // Exact in units; the double views round once (a wrapped accumulator
    // would be off by orders of magnitude).
    EXPECT_DOUBLE_EQ(probe.crest(), 1.0);
    EXPECT_DOUBLE_EQ(probe.total_fj(),
                     static_cast<double>(m.max_step_units) * kSteps /
                         sim::EnergyModel::kUnitsPerFj);
    worst = std::max(worst, m.max_step_units);
  };
  for (const auto& name : suite::all_names()) {
    const auto b = suite::by_name(name, 64);
    for (const auto& [style, clocks] :
         {std::pair{DesignStyle::ConventionalNonGated, 1},
          std::pair{DesignStyle::MultiClock, 4}}) {
      core::SynthesisOptions opts;
      opts.style = style;
      opts.num_clocks = clocks;
      const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
      check(*syn.design, name + " clocks=" + std::to_string(clocks));
    }
  }
  Rng rng(64);
  dfg::RandomGraphConfig rc;
  rc.num_inputs = 8;
  rc.num_nodes = 512;
  rc.width = 64;
  const dfg::Graph g = dfg::random_graph(rng, rc);
  dfg::ResourceLimits limits;
  limits.default_limit = 4;
  const dfg::Schedule sched = dfg::schedule_list(g, limits);
  core::SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 4;
  check(*core::synthesize(g, sched, opts).design, "random 512 nodes w64");
  std::printf("widest worst-case step: %.3g fJ, %.1f%% of the range\n",
              static_cast<double>(worst) / sim::EnergyModel::kUnitsPerFj,
              100.0 * static_cast<double>(worst) /
                  static_cast<double>(sim::EnergyModel::kMaxStepUnits));
}

TEST(AttributionTest, OverRangeEnergyModelsAreRejected) {
  const auto b = suite::facet(64);
  core::SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 2;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  const TechLibrary tech = TechLibrary::cmos08();
  // A supply of 10 kV makes every weight ~5e6 times larger: the worst-case
  // step no longer fits, and the model is rejected at build.
  EXPECT_THROW(Attribution(*syn.design, tech, 1e4), Error);
  // A weight past the fixed-point range is rejected on conversion.
  EXPECT_THROW(sim::EnergyModel::units(1e30), Error);
  EXPECT_THROW(sim::EnergyModel::units(-1.0), Error);
  // A hand-forged model whose worst-case step overflows a 64-lane
  // aggregate is refused by the probe.
  sim::EnergyModel forged = Attribution(*syn.design, tech).energy_model();
  forged.max_step_units = sim::EnergyModel::kMaxStepUnits + 1;
  EXPECT_THROW(sim::PowerProbe probe(forged), Error);
}

// --- report surfaces ------------------------------------------------------

TEST(AttributionTest, ReportExportsAreWellFormed) {
  const auto b = suite::biquad(4);
  const TechLibrary tech = TechLibrary::cmos08();
  const auto run = run_bench(b, DesignStyle::MultiClock, 2);
  Attribution attr(*run.syn.design, tech);
  const auto rep = attr.attribute(run.result.activity);
  ASSERT_FALSE(rep.rows.empty());

  // Rows are hottest-first; ties (if any) break on name, so the order is a
  // total order either way.
  for (std::size_t i = 1; i < rep.rows.size(); ++i) {
    EXPECT_GE(rep.rows[i - 1].energy_fj, rep.rows[i].energy_fj);
  }

  // At least one functional unit carries a DFG-op label from synthesis.
  bool labelled_fu = false;
  for (const auto& row : rep.rows) {
    if (row.group == "fu" && !row.op.empty() && row.op != "fu") {
      labelled_fu = true;
    }
  }
  EXPECT_TRUE(labelled_fu);

  // Collapsed stacks: one "domain;component;op <fJ>" line per row.
  const std::string folded = rep.collapsed_stacks();
  std::size_t lines = 0;
  for (char c : folded) lines += c == '\n';
  EXPECT_EQ(lines, rep.rows.size());
  EXPECT_NE(folded.find(';'), std::string::npos);

  // Top table names the hottest row and caps at k entries.
  const std::string table = rep.top_table(3);
  EXPECT_NE(table.find(rep.rows.front().component), std::string::npos);

  EXPECT_EQ(domain_label(0), "global");
  EXPECT_EQ(domain_label(2), "clk2");
}

// Counter tracks and histograms stay out of the registry when collection
// is disabled — the PR-2 zero-cost contract extended to the new surfaces.
TEST(AttributionTest, DisabledObsCollectsNothing) {
  obs::set_enabled(false);
  obs::Registry::instance().reset();
  const auto b = suite::facet(4);
  const TechLibrary tech = TechLibrary::cmos08();
  core::SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 2;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  Attribution attr(*syn.design, tech);
  sim::PowerProbe probe(
      attr.energy_model(),
      sim::PowerProbe::kWaveform | sim::PowerProbe::kStepHistogram);
  sim::Simulator s(*syn.design);
  s.set_power_probe(&probe);
  Rng rng(3);
  const auto stream =
      sim::uniform_stream(rng, b.graph->inputs().size(), 50, 4);
  s.run(stream, b.graph->inputs(), b.graph->outputs());

  publish_power_tracks(probe);
  obs::merge_histogram("power.step_fj", probe.step_histogram());
  EXPECT_TRUE(obs::Registry::instance().counter_tracks().empty());
  EXPECT_TRUE(obs::Registry::instance().histograms().empty());

  obs::set_enabled(true);
  publish_power_tracks(probe);
  obs::merge_histogram("power.step_fj", probe.step_histogram());
  EXPECT_EQ(obs::Registry::instance().counter_tracks().size(),
            static_cast<std::size_t>(probe.num_domains()) + 1);
  EXPECT_EQ(obs::Registry::instance().histograms().size(), 1u);
  obs::set_enabled(false);
  obs::Registry::instance().reset();
}

}  // namespace
}  // namespace mcrtl::power
