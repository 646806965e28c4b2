// Unit tests for the per-step power profile: a PowerProbe that keeps its
// waveform, and its fold onto one period (power::render_period_profile).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/synthesizer.hpp"
#include "power/attribution.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "suite/benchmarks.hpp"

namespace mcrtl::power {
namespace {

// A design simulated with a waveform-keeping probe attached. Not copyable:
// the probe points into the attribution's model.
struct Profile {
  Profile(std::shared_ptr<const rtl::Design> d, const dfg::Graph& graph,
          const sim::InputStream& stream)
      : design(std::move(d)),
        attribution(*design, TechLibrary::cmos08()),
        probe(attribution.energy_model(), sim::PowerProbe::kWaveform) {
    sim::Simulator s(*design);
    s.set_power_probe(&probe);
    s.run(stream, graph.inputs(), graph.outputs());
  }
  Profile(const Profile&) = delete;

  // Whole-design energy of step `s`, fJ.
  double step_total_fj(std::size_t s) const {
    double e = 0.0;
    for (int d = 0; d <= probe.num_domains(); ++d) e += probe.step_fj(s, d);
    return e;
  }
  double mean_fj() const {
    return probe.total_fj() / static_cast<double>(probe.steps());
  }

  std::shared_ptr<const rtl::Design> design;
  Attribution attribution;
  sim::PowerProbe probe;
};

Profile run_profile(const suite::Benchmark& b, core::DesignStyle style,
                    int clocks, std::size_t computations = 200) {
  core::SynthesisOptions opts;
  opts.style = style;
  opts.num_clocks = clocks;
  auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  Rng rng(7);
  const auto stream = sim::uniform_stream(rng, b.graph->inputs().size(),
                                          computations, b.graph->width());
  return Profile(std::move(syn.design), *b.graph, stream);
}

TEST(PowerTraceTest, OneEntryPerStep) {
  const auto b = suite::motivating(8);
  const auto prof = run_profile(b, core::DesignStyle::ConventionalGated, 1, 10);
  // period = T+1 = 6 steps per computation.
  EXPECT_EQ(prof.probe.steps(), 60u);
  double sum = 0.0;
  for (std::size_t s = 0; s < prof.probe.steps(); ++s) {
    sum += prof.step_total_fj(s);
  }
  EXPECT_NEAR(sum, prof.probe.total_fj(), 1e-9 * prof.probe.total_fj());
}

TEST(PowerTraceTest, EnergyNonNegativeAndNonTrivial) {
  const auto b = suite::hal(8);
  const auto prof = run_profile(b, core::DesignStyle::ConventionalGated, 1);
  double peak = 0.0;
  for (std::size_t s = 0; s < prof.probe.steps(); ++s) {
    for (int d = 0; d <= prof.probe.num_domains(); ++d) {
      EXPECT_GE(prof.probe.step_fj(s, d), 0.0);
    }
    peak = std::max(peak, prof.step_total_fj(s));
  }
  EXPECT_GT(prof.mean_fj(), 0.0);
  EXPECT_GE(peak, prof.mean_fj());
  EXPECT_GE(prof.probe.crest(), 1.0);
}

TEST(PowerTraceTest, MultiClockReducesMeanSwitchingEnergy) {
  const auto b = suite::hal(4);
  const auto conv = run_profile(b, core::DesignStyle::ConventionalGated, 1);
  const auto mc3 = run_profile(b, core::DesignStyle::MultiClock, 3);
  EXPECT_LT(mc3.mean_fj(), conv.mean_fj());
}

TEST(PowerTraceTest, ProfileRendersOneRowPerStep) {
  const auto b = suite::facet(4);
  const auto prof = run_profile(b, core::DesignStyle::MultiClock, 2, 50);
  const std::string text =
      render_period_profile(prof.probe, prof.design->clocks);
  EXPECT_NE(text.find("step  1 (CLK_1)"), std::string::npos);
  EXPECT_NE(text.find("fJ"), std::string::npos);
  // row count == period
  EXPECT_EQ(prof.design->clocks.period(), 6);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), static_cast<long>(6));
}

TEST(PowerTraceTest, ConstantInputsGiveQuieterTrace) {
  const auto b = suite::motivating(8);
  core::SynthesisOptions opts;
  opts.style = core::DesignStyle::ConventionalGated;
  const std::shared_ptr<const rtl::Design> design =
      core::synthesize(*b.graph, *b.schedule, opts).design;
  Rng r1(9), r2(9);
  const auto uni = sim::uniform_stream(r1, b.graph->inputs().size(), 100, 8);
  const auto con = sim::constant_stream(r2, b.graph->inputs().size(), 100, 8);
  EXPECT_LT(Profile(design, *b.graph, con).mean_fj(),
            Profile(design, *b.graph, uni).mean_fj());
}

}  // namespace
}  // namespace mcrtl::power
