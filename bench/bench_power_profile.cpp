// Per-step power profile: the multi-clock scheme's mechanism made visible.
// In a conventional single-clock datapath the whole circuit switches every
// master cycle; under n non-overlapping clocks only one partition switches
// per cycle, so the per-cycle energy profile flattens and its average
// drops. Prints the profile folded onto one computation period for the HAL
// benchmark under each style. Every step's energy is the whole of the
// design's P: net switching, storage clock pins, gating cells and the
// phase clock trees.
#include <cstdio>

#include "core/synthesizer.hpp"
#include "power/attribution.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "suite/benchmarks.hpp"

using namespace mcrtl;

namespace {

void profile(const suite::Benchmark& b, core::DesignStyle style, int clocks) {
  core::SynthesisOptions opts;
  opts.style = style;
  opts.num_clocks = clocks;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);

  const power::Attribution attribution(*syn.design,
                                       power::TechLibrary::cmos08());
  sim::PowerProbe probe(attribution.energy_model(), sim::PowerProbe::kWaveform);
  sim::Simulator simulator(*syn.design);
  simulator.set_power_probe(&probe);
  Rng rng(61);
  const auto stream =
      sim::uniform_stream(rng, b.graph->inputs().size(), 400, b.graph->width());
  simulator.run(stream, b.graph->inputs(), b.graph->outputs());

  const double mean = probe.total_fj() / static_cast<double>(probe.steps());
  std::printf("%s:\n", syn.design->style_name.c_str());
  std::printf("%s",
              power::render_period_profile(probe, syn.design->clocks).c_str());
  std::printf("mean %.0f fJ/cycle, peak %.0f fJ, crest %.2f\n\n", mean,
              sim::EnergyModel::to_fj(static_cast<double>(probe.peak_units())),
              probe.crest());
}

}  // namespace

int main() {
  std::printf("=== per-cycle switching-energy profile (HAL benchmark) ===\n\n");
  const auto b = suite::hal(4);
  profile(b, core::DesignStyle::ConventionalGated, 1);
  profile(b, core::DesignStyle::MultiClock, 2);
  profile(b, core::DesignStyle::MultiClock, 3);
  std::printf("each master cycle only one partition's DPM switches, so the "
              "multi-clock profiles spread work across the period\n"
              "instead of surging every cycle.\n");
  return 0;
}
