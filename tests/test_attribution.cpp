// Tests for the hierarchical power-attribution subsystem: conservation of
// toggles and energy between the three accounting views (per-net
// attribution rows, the live PowerProbe waveform, the whole-run
// estimator), the observe-only contract of the probe, and the per-domain
// waveform's one-active-partition signature.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/synthesizer.hpp"
#include "obs/obs.hpp"
#include "power/attribution.hpp"
#include "power/estimator.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "suite/benchmarks.hpp"
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
  sim::PowerProbe probe(attr.energy_model());
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
  sim::PowerProbe probe(attr.energy_model());
  sim::Simulator s(*syn.design);
  s.set_power_probe(&probe);
  Rng rng(3);
  const auto stream =
      sim::uniform_stream(rng, b.graph->inputs().size(), 50, 4);
  s.run(stream, b.graph->inputs(), b.graph->outputs());

  publish_power_tracks(probe);
  obs::observe_many("power.step_fj", probe.step_energies());
  EXPECT_TRUE(obs::Registry::instance().counter_tracks().empty());
  EXPECT_TRUE(obs::Registry::instance().histograms().empty());

  obs::set_enabled(true);
  publish_power_tracks(probe);
  obs::observe_many("power.step_fj", probe.step_energies());
  EXPECT_EQ(obs::Registry::instance().counter_tracks().size(),
            static_cast<std::size_t>(probe.num_domains()) + 1);
  EXPECT_EQ(obs::Registry::instance().histograms().size(), 1u);
  obs::set_enabled(false);
  obs::Registry::instance().reset();
}

}  // namespace
}  // namespace mcrtl::power
