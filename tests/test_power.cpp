// Unit tests for the technology model and the power/area estimators.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/explorer.hpp"
#include "core/synthesizer.hpp"
#include "dfg/random_graph.hpp"
#include "dfg/schedule.hpp"
#include "util/error.hpp"
#include "power/attribution.hpp"
#include "power/estimator.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "suite/benchmarks.hpp"
#include "util/strings.hpp"

namespace mcrtl::power {
namespace {

using core::DesignStyle;

struct Measured {
  PowerBreakdown power;
  AreaBreakdown area;
};

Measured measure(const suite::Benchmark& b, DesignStyle style, int clocks,
                 std::size_t computations = 300) {
  core::SynthesisOptions opts;
  opts.style = style;
  opts.num_clocks = clocks;
  auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  Rng rng(1234);
  const auto stream = sim::uniform_stream(rng, b.graph->inputs().size(),
                                          computations, b.graph->width());
  sim::Simulator s(*syn.design);
  const auto res = s.run(stream, b.graph->inputs(), b.graph->outputs());
  const TechLibrary tech = TechLibrary::cmos08();
  Measured m;
  m.power = estimate_power(*syn.design, res.activity, tech);
  m.area = estimate_area(*syn.design, tech);
  return m;
}

TEST(TechLibraryTest, LatchClockPinCheaperThanDff) {
  const TechLibrary t = TechLibrary::cmos08();
  EXPECT_LT(t.storage_clock_pin_cap(rtl::CompKind::Latch),
            t.storage_clock_pin_cap(rtl::CompKind::Register));
}

TEST(TechLibraryTest, LatchAreaSmallerThanDff) {
  const TechLibrary t = TechLibrary::cmos08();
  EXPECT_LT(t.storage_area(rtl::CompKind::Latch, 4),
            t.storage_area(rtl::CompKind::Register, 4));
}

TEST(TechLibraryTest, MultiplierDominatesAdder) {
  const TechLibrary t = TechLibrary::cmos08();
  // Array multipliers grow quadratically: already bigger at 4 bits, and
  // far past 3x an adder at word widths.
  EXPECT_GT(t.alu_area({dfg::Op::Mul}, 4), t.alu_area({dfg::Op::Add}, 4));
  EXPECT_GT(t.alu_area({dfg::Op::Mul}, 16), 3 * t.alu_area({dfg::Op::Add}, 16));
  EXPECT_GT(t.func_internal_cap(dfg::Op::Mul, 4),
            2 * t.func_internal_cap(dfg::Op::Add, 4));
}

TEST(TechLibraryTest, MultiplierScalesWithWidth) {
  const TechLibrary t = TechLibrary::cmos08();
  EXPECT_GT(t.alu_area({dfg::Op::Mul}, 8), 3 * t.alu_area({dfg::Op::Mul}, 4));
  EXPECT_GT(t.func_internal_cap(dfg::Op::Mul, 8),
            t.func_internal_cap(dfg::Op::Mul, 4));
}

TEST(TechLibraryTest, AddSubPairSharesWell) {
  const TechLibrary t = TechLibrary::cmos08();
  const double addsub = t.alu_area({dfg::Op::Add, dfg::Op::Sub}, 4);
  const double separate =
      t.alu_area({dfg::Op::Add}, 4) + t.alu_area({dfg::Op::Sub}, 4);
  EXPECT_LT(addsub, separate);
  // ... but a wide multifunction set pays an overhead.
  const double muldiv = t.alu_area({dfg::Op::Mul, dfg::Op::Div}, 4);
  const double separate2 =
      t.alu_area({dfg::Op::Mul}, 4) + t.alu_area({dfg::Op::Div}, 4);
  EXPECT_GT(muldiv, separate2);
}

TEST(TechLibraryTest, MultifunctionAluInputCapGrows) {
  const TechLibrary t = TechLibrary::cmos08();
  rtl::Netlist nl("t");
  const auto a1 = nl.add_component(rtl::CompKind::Alu, "a1", 4);
  nl.comp_mut(a1).funcs = {dfg::Op::Add};
  const auto a2 = nl.add_component(rtl::CompKind::Alu, "a2", 4);
  nl.comp_mut(a2).funcs = {dfg::Op::Add, dfg::Op::Mul};
  const auto src = nl.add_component(rtl::CompKind::InputPort, "i", 4);
  const auto net = nl.comp(src).output;
  EXPECT_LT(t.input_pin_cap(nl, nl.comp(a1), net),
            t.input_pin_cap(nl, nl.comp(a2), net));
}

TEST(TechLibraryTest, NetCapIncludesAllReaders) {
  const TechLibrary t = TechLibrary::cmos08();
  rtl::Netlist nl("t");
  const auto src = nl.add_component(rtl::CompKind::InputPort, "i", 4);
  const auto m1 = nl.add_component(rtl::CompKind::Mux, "m1", 4);
  const auto m2 = nl.add_component(rtl::CompKind::Mux, "m2", 4);
  const auto net = nl.comp(src).output;
  const double c0 = t.net_cap(nl, nl.net(net));
  nl.connect_input(m1, net);
  const double c1 = t.net_cap(nl, nl.net(net));
  nl.connect_input(m2, net);
  const double c2 = t.net_cap(nl, nl.net(net));
  EXPECT_LT(c0, c1);
  EXPECT_LT(c1, c2);
}

TEST(PowerEstimatorTest, RequiresActivity) {
  const auto b = suite::motivating(8);
  core::SynthesisOptions opts;
  opts.style = DesignStyle::ConventionalGated;
  auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  sim::Activity empty;
  EXPECT_THROW(
      estimate_power(*syn.design, empty, TechLibrary::cmos08(), PowerParams{}),
      mcrtl::Error);
}

TEST(PowerEstimatorTest, BreakdownSumsToTotal) {
  const auto b = suite::hal(8);
  const auto m = measure(b, DesignStyle::MultiClock, 2);
  EXPECT_NEAR(m.power.total,
              m.power.combinational + m.power.storage + m.power.clock_tree +
                  m.power.control + m.power.io + m.power.leakage,
              1e-9);
  EXPECT_GT(m.power.total, 0.0);
}

TEST(PowerEstimatorTest, LeakageIsOptInAndAreaProportional) {
  const auto b = suite::hal(8);
  core::SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 2;
  auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  Rng rng(4);
  const auto stream = sim::uniform_stream(rng, b.graph->inputs().size(), 100, 8);
  sim::Simulator s(*syn.design);
  const auto res = s.run(stream, b.graph->inputs(), b.graph->outputs());
  const TechLibrary tech = TechLibrary::cmos08();

  PowerParams off;  // default: no leakage (COMPASS-style transition counting)
  const auto p_off = estimate_power(*syn.design, res.activity, tech, off);
  EXPECT_EQ(p_off.leakage, 0.0);

  PowerParams on = off;
  on.leakage_mw_per_mlambda2 = 0.05;
  const auto p_on = estimate_power(*syn.design, res.activity, tech, on);
  const auto area = estimate_area(*syn.design, tech);
  EXPECT_NEAR(p_on.leakage, 0.05 * area.total / 1e6, 1e-9);
  EXPECT_NEAR(p_on.total, p_off.total + p_on.leakage, 1e-9);
}

TEST(PowerEstimatorTest, GatedBeatsNonGated) {
  for (const char* name : {"motivating", "facet", "hal", "biquad"}) {
    const auto b = suite::by_name(name, 4);
    const auto pn = measure(b, DesignStyle::ConventionalNonGated, 1);
    const auto pg = measure(b, DesignStyle::ConventionalGated, 1);
    EXPECT_LT(pg.power.total, pn.power.total) << name;
    // Gating saves storage-category power specifically.
    EXPECT_LT(pg.power.storage, pn.power.storage) << name;
  }
}

TEST(PowerEstimatorTest, ThreeClocksBeatGatedOnPaperBenchmarks) {
  // The paper's headline: the multi-clock scheme beats conventional gated
  // clocks on all four benchmarks (35-54%).
  for (const char* name : {"facet", "hal", "biquad", "bandpass"}) {
    const auto b = suite::by_name(name, 4);
    const auto pg = measure(b, DesignStyle::ConventionalGated, 1);
    const auto p3 = measure(b, DesignStyle::MultiClock, 3);
    EXPECT_LT(p3.power.total, pg.power.total) << name;
  }
}

TEST(PowerEstimatorTest, PowerScalesWithFrequency) {
  const auto b = suite::motivating(8);
  core::SynthesisOptions opts;
  opts.style = DesignStyle::ConventionalGated;
  auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  Rng rng(5);
  const auto stream = sim::uniform_stream(rng, b.graph->inputs().size(), 100, 8);
  sim::Simulator s(*syn.design);
  const auto res = s.run(stream, b.graph->inputs(), b.graph->outputs());
  const TechLibrary tech = TechLibrary::cmos08();
  PowerParams p1, p2;
  p1.f_master = 20e6;
  p2.f_master = 40e6;
  const auto e1 = estimate_power(*syn.design, res.activity, tech, p1);
  const auto e2 = estimate_power(*syn.design, res.activity, tech, p2);
  EXPECT_NEAR(e2.total, 2.0 * e1.total, 1e-9);
}

TEST(PowerEstimatorTest, PowerScalesWithVddSquared) {
  const auto b = suite::motivating(8);
  core::SynthesisOptions opts;
  opts.style = DesignStyle::ConventionalGated;
  auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  Rng rng(6);
  const auto stream = sim::uniform_stream(rng, b.graph->inputs().size(), 100, 8);
  sim::Simulator s(*syn.design);
  const auto res = s.run(stream, b.graph->inputs(), b.graph->outputs());
  const TechLibrary tech = TechLibrary::cmos08();
  PowerParams lo, hi;
  lo.vdd = 3.3;
  hi.vdd = 6.6;
  const auto e1 = estimate_power(*syn.design, res.activity, tech, lo);
  const auto e2 = estimate_power(*syn.design, res.activity, tech, hi);
  EXPECT_NEAR(e2.total, 4.0 * e1.total, 1e-9);
}

TEST(PowerEstimatorTest, ControllerFsmIsOptInAndNearConstantAcrossStyles) {
  const auto b = suite::facet(4);
  auto run = [&](DesignStyle style, int clocks, bool fsm) {
    core::SynthesisOptions opts;
    opts.style = style;
    opts.num_clocks = clocks;
    auto syn = core::synthesize(*b.graph, *b.schedule, opts);
    Rng rng(8);
    const auto stream = sim::uniform_stream(rng, b.graph->inputs().size(), 100, 4);
    sim::Simulator s(*syn.design);
    const auto res = s.run(stream, b.graph->inputs(), b.graph->outputs());
    PowerParams p;
    p.include_controller_fsm = fsm;
    return estimate_power(*syn.design, res.activity, TechLibrary::cmos08(), p);
  };
  const auto gated_off = run(DesignStyle::ConventionalGated, 1, false);
  const auto gated_on = run(DesignStyle::ConventionalGated, 1, true);
  const auto mc3_off = run(DesignStyle::MultiClock, 3, false);
  const auto mc3_on = run(DesignStyle::MultiClock, 3, true);
  // Opt-in: default adds nothing.
  EXPECT_GT(gated_on.control, gated_off.control);
  EXPECT_GT(gated_on.total, gated_off.total);
  // The FSM term is near-constant across styles (same period), so the
  // multi-clock saving is diluted but not inverted.
  const double fsm_gated = gated_on.control - gated_off.control;
  const double fsm_mc3 = mc3_on.control - mc3_off.control;
  EXPECT_NEAR(fsm_gated, fsm_mc3, 0.35 * fsm_gated);
  EXPECT_LT(mc3_on.total, gated_on.total);
}

TEST(AreaEstimatorTest, BreakdownConsistent) {
  const auto b = suite::biquad(4);
  const auto m = measure(b, DesignStyle::MultiClock, 3, 50);
  const TechLibrary tech = TechLibrary::cmos08();
  const double active = m.area.alus + m.area.storage + m.area.muxes +
                        m.area.controller + m.area.io + m.area.clocking;
  EXPECT_NEAR(m.area.total, active * tech.wiring_overhead_factor() + m.area.fixed,
              1.0);
  EXPECT_GT(m.area.alus, 0.0);
  EXPECT_GT(m.area.storage, 0.0);
}

TEST(AreaEstimatorTest, WiderDatapathIsLarger) {
  const auto b4 = suite::hal(4);
  const auto b8 = suite::hal(8);
  const auto m4 = measure(b4, DesignStyle::ConventionalGated, 1, 20);
  const auto m8 = measure(b8, DesignStyle::ConventionalGated, 1, 20);
  EXPECT_GT(m8.area.total, m4.area.total);
}

TEST(AreaEstimatorTest, MoreClocksCostAreaOnFilters) {
  // On the filter benchmarks (serial baselines) partitioning adds ALUs.
  for (const char* name : {"biquad", "bandpass"}) {
    const auto b = suite::by_name(name, 4);
    const auto m1 = measure(b, DesignStyle::MultiClock, 1, 20);
    const auto m3 = measure(b, DesignStyle::MultiClock, 3, 20);
    EXPECT_GT(m3.area.total, m1.area.total) << name;
  }
}

TEST(BreakdownStringsTest, HumanReadable) {
  const auto b = suite::motivating(8);
  const auto m = measure(b, DesignStyle::ConventionalGated, 1, 20);
  EXPECT_NE(m.power.to_string().find("total"), std::string::npos);
  EXPECT_NE(m.area.to_string().find("alus"), std::string::npos);
}

// ---- TechLibrary properties -------------------------------------------------
// The estimators trust the library blindly, so its qualitative shape is
// pinned here as properties over the whole parameter range rather than a
// handful of spot values: every cost is monotone in bit-width and fan-in,
// and degenerate sizes behave (zero width/fan-in costs nothing, one bit
// costs something).

namespace {

const std::vector<dfg::Op> kAllOps = {
    dfg::Op::Add, dfg::Op::Sub, dfg::Op::Mul, dfg::Op::Div, dfg::Op::Mod,
    dfg::Op::And, dfg::Op::Or,  dfg::Op::Xor, dfg::Op::Not, dfg::Op::Neg,
    dfg::Op::Shl, dfg::Op::Shr, dfg::Op::Lt,  dfg::Op::Gt,  dfg::Op::Le,
    dfg::Op::Ge,  dfg::Op::Eq,  dfg::Op::Ne,  dfg::Op::Min, dfg::Op::Max,
    dfg::Op::Pass};

}  // namespace

TEST(TechLibraryPropertyTest, AreasStrictlyMonotoneInWidth) {
  const TechLibrary t = TechLibrary::cmos08();
  for (unsigned w = 1; w < 16; ++w) {
    for (dfg::Op op : kAllOps) {
      EXPECT_LT(t.alu_area({op}, w), t.alu_area({op}, w + 1))
          << dfg::op_name(op) << " width " << w;
    }
    EXPECT_LT(t.storage_area(rtl::CompKind::Latch, w),
              t.storage_area(rtl::CompKind::Latch, w + 1));
    EXPECT_LT(t.storage_area(rtl::CompKind::Register, w),
              t.storage_area(rtl::CompKind::Register, w + 1));
    EXPECT_LT(t.mux_area(2, w), t.mux_area(2, w + 1));
    EXPECT_LT(t.io_port_area(w), t.io_port_area(w + 1));
    EXPECT_LT(t.controller_area(w, 6), t.controller_area(w + 1, 6));
  }
}

TEST(TechLibraryPropertyTest, CapacitancesMonotoneInWidth) {
  const TechLibrary t = TechLibrary::cmos08();
  // Non-array blocks present a width-independent per-bit cap (constant is
  // allowed); the array structures (mul/div/mod) must strictly grow.
  for (unsigned w = 1; w < 16; ++w) {
    for (dfg::Op op : kAllOps) {
      EXPECT_LE(t.func_internal_cap(op, w), t.func_internal_cap(op, w + 1))
          << dfg::op_name(op) << " width " << w;
    }
    for (dfg::Op op : {dfg::Op::Mul, dfg::Op::Div, dfg::Op::Mod}) {
      EXPECT_LT(t.func_internal_cap(op, w), t.func_internal_cap(op, w + 1))
          << dfg::op_name(op) << " width " << w;
    }
  }
}

TEST(TechLibraryPropertyTest, AluAreaMonotoneInFunctionSet) {
  const TechLibrary t = TechLibrary::cmos08();
  // Adding any function to any set makes the ALU strictly larger — the
  // well-sharing (+-) discount must never turn a superset cheaper.
  for (unsigned w : {1u, 4u, 8u, 16u}) {
    for (dfg::Op base : kAllOps) {
      for (dfg::Op extra : kAllOps) {
        if (extra == base) continue;
        EXPECT_LT(t.alu_area({base}, w), t.alu_area({base, extra}, w))
            << dfg::op_name(base) << "+" << dfg::op_name(extra) << " width "
            << w;
      }
    }
    EXPECT_LT(t.alu_area({dfg::Op::Add, dfg::Op::Sub}, w),
              t.alu_area({dfg::Op::Add, dfg::Op::Sub, dfg::Op::Mul}, w));
  }
}

TEST(TechLibraryPropertyTest, AluInputCapMonotoneInFunctionSet) {
  const TechLibrary t = TechLibrary::cmos08();
  rtl::Netlist nl("t");
  const auto src = nl.add_component(rtl::CompKind::InputPort, "i", 4);
  const auto net = nl.comp(src).output;
  const auto alu = nl.add_component(rtl::CompKind::Alu, "a", 4);
  std::vector<dfg::Op> funcs;
  double prev = 0.0;
  for (dfg::Op op : {dfg::Op::Add, dfg::Op::Sub, dfg::Op::Mul, dfg::Op::Lt}) {
    funcs.push_back(op);
    nl.comp_mut(alu).funcs = funcs;
    const double cap = t.input_pin_cap(nl, nl.comp(alu), net);
    EXPECT_GT(cap, prev) << "function set size " << funcs.size();
    prev = cap;
  }
}

TEST(TechLibraryPropertyTest, NetCapMonotoneInFanIn) {
  const TechLibrary t = TechLibrary::cmos08();
  rtl::Netlist nl("t");
  const auto src = nl.add_component(rtl::CompKind::InputPort, "i", 4);
  const auto net = nl.comp(src).output;
  double prev = t.net_cap(nl, nl.net(net));
  EXPECT_GT(prev, 0.0);  // the driver alone already loads the net
  for (int r = 0; r < 8; ++r) {
    const auto mux =
        nl.add_component(rtl::CompKind::Mux, "m" + std::to_string(r), 4);
    nl.connect_input(mux, net);
    const double cap = t.net_cap(nl, nl.net(net));
    EXPECT_GT(cap, prev) << "reader " << r;
    prev = cap;
  }
}

TEST(TechLibraryPropertyTest, MuxAreaMonotoneInFanIn) {
  const TechLibrary t = TechLibrary::cmos08();
  for (std::size_t in = 1; in < 12; ++in) {
    EXPECT_LT(t.mux_area(in, 4), t.mux_area(in + 1, 4));
  }
}

TEST(TechLibraryPropertyTest, ZeroAndOneBitEdgeCases) {
  const TechLibrary t = TechLibrary::cmos08();
  // Zero width/fan-in is a degenerate-but-legal query: it must cost zero,
  // not trap or go negative.
  for (dfg::Op op : kAllOps) {
    EXPECT_EQ(t.alu_area({op}, 0), 0.0) << dfg::op_name(op);
  }
  EXPECT_EQ(t.storage_area(rtl::CompKind::Latch, 0), 0.0);
  EXPECT_EQ(t.mux_area(0, 4), 0.0);
  EXPECT_EQ(t.mux_area(4, 0), 0.0);
  EXPECT_EQ(t.io_port_area(0), 0.0);
  EXPECT_EQ(t.controller_area(0, 10), 0.0);
  EXPECT_EQ(t.clock_tree_cap(0), 0.0);
  // One bit of anything is real hardware: strictly positive.
  for (dfg::Op op : kAllOps) {
    EXPECT_GT(t.alu_area({op}, 1), 0.0) << dfg::op_name(op);
    EXPECT_GT(t.func_internal_cap(op, 1), 0.0) << dfg::op_name(op);
  }
  EXPECT_GT(t.storage_area(rtl::CompKind::Latch, 1), 0.0);
  EXPECT_GT(t.storage_area(rtl::CompKind::Register, 1), 0.0);
  EXPECT_GT(t.mux_area(1, 1), 0.0);
  EXPECT_GT(t.io_port_area(1), 0.0);
  EXPECT_GT(t.clock_tree_cap(1), t.clock_tree_cap(0));
}

// --- the fold against a frozen copy of the walk it replaced ----------------

// estimate_power() as it stood before it became a fold over Attribution's
// capacitance table: its own walk over nets, storage and clock trees. Kept
// verbatim so the fold can be pinned to it bit for bit.
PowerBreakdown reference_estimate_power(const rtl::Design& design,
                                        const sim::Activity& activity,
                                        const TechLibrary& tech,
                                        const PowerParams& params) {
  using rtl::CompKind;
  MCRTL_CHECK_MSG(activity.steps > 0, "no activity: simulate before estimating");
  const rtl::Netlist& nl = design.netlist;
  const double v2 = params.vdd * params.vdd;
  const double scale = v2 * params.f_master * 1e-15 * 1e3 /
                       static_cast<double>(activity.steps);

  PowerBreakdown pb;
  for (const auto& net : nl.nets()) {
    const auto toggles = activity.net_toggles[net.id.index()];
    if (toggles == 0) continue;
    const double cap = tech.net_cap(nl, net);
    const double mw = cap * static_cast<double>(toggles) * scale;
    switch (nl.comp(net.driver).kind) {
      case CompKind::Mux:
      case CompKind::Bus:
      case CompKind::Alu:
      case CompKind::IsoGate:
      case CompKind::Constant:
        pb.combinational += mw;
        break;
      case CompKind::Register:
      case CompKind::Latch:
        pb.storage += mw;
        break;
      case CompKind::ControlSource:
        pb.control += mw;
        break;
      case CompKind::InputPort:
        pb.io += mw;
        break;
      default:
        pb.combinational += mw;
        break;
    }
  }
  for (const auto& c : nl.components()) {
    if (!rtl::is_storage(c.kind)) continue;
    const auto events = activity.storage_clock_events[c.id.index()];
    if (events > 0) {
      const double pin = tech.storage_clock_pin_cap(c.kind) * c.width;
      pb.storage += pin * static_cast<double>(events) * scale;
      if (c.clock_gated) {
        pb.clock_tree +=
            tech.clock_gate_event_cap() * static_cast<double>(events) * scale;
      }
    }
  }
  std::map<int, int> sinks;
  for (const auto& c : nl.components()) {
    if (rtl::is_storage(c.kind)) ++sinks[c.clock_phase];
  }
  for (int p = 1; p <= design.clocks.num_phases(); ++p) {
    const auto pulses = activity.phase_pulses[static_cast<std::size_t>(p)];
    if (pulses == 0) continue;
    pb.clock_tree +=
        tech.clock_tree_cap(sinks[p]) * static_cast<double>(pulses) * scale;
  }
  if (params.include_controller_fsm) {
    const int period = design.control.period();
    const double clock_pins =
        static_cast<double>(period) *
        tech.storage_clock_pin_cap(rtl::CompKind::Register);
    const double state_toggles = 2.0 * 60.0;
    const double decode = 15.0 * design.control.total_bits();
    const double per_cycle_fF = clock_pins + state_toggles + decode;
    pb.control += per_cycle_fF * static_cast<double>(activity.steps) * scale;
  }
  if (params.leakage_mw_per_mlambda2 > 0.0) {
    const AreaBreakdown area = estimate_area(design, tech);
    pb.leakage = params.leakage_mw_per_mlambda2 * area.total / 1e6;
  }
  pb.total = pb.combinational + pb.storage + pb.clock_tree + pb.control +
             pb.io + pb.leakage;
  return pb;
}

constexpr std::pair<const char*, double PowerBreakdown::*> kFields[] = {
    {"combinational", &PowerBreakdown::combinational},
    {"storage", &PowerBreakdown::storage},
    {"clock_tree", &PowerBreakdown::clock_tree},
    {"control", &PowerBreakdown::control},
    {"io", &PowerBreakdown::io},
    {"leakage", &PowerBreakdown::leakage},
    {"total", &PowerBreakdown::total}};

void expect_same_bits(const PowerBreakdown& a, const PowerBreakdown& b,
                      const std::string& where) {
  for (const auto& [name, field] : kFields) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.*field),
              std::bit_cast<std::uint64_t>(b.*field))
        << where << " " << name << ": " << a.*field << " vs " << b.*field;
  }
}

// Every operating point the fold must reproduce: controller FSM off/on,
// leakage off/on, two (vdd, f_master) pairs.
std::vector<PowerParams> param_grid() {
  std::vector<PowerParams> grid;
  for (const auto& [vdd, f] : {std::pair{4.65, 40.0e6}, std::pair{3.3, 25.0e6}}) {
    for (const bool fsm : {false, true}) {
      for (const double leak : {0.0, 0.05}) {
        PowerParams p;
        p.vdd = vdd;
        p.f_master = f;
        p.include_controller_fsm = fsm;
        p.leakage_mw_per_mlambda2 = leak;
        grid.push_back(p);
      }
    }
  }
  return grid;
}

// Simulates `design` on a short stream and checks both estimate_power() and
// a shared Attribution's power() against the reference on the whole grid.
void check_fold(const rtl::Design& design, const dfg::Graph& graph,
                std::uint64_t seed, const std::string& where) {
  Rng rng(seed);
  const auto stream = sim::uniform_stream(rng, graph.inputs().size(), 40,
                                          graph.width());
  sim::Simulator s(design);
  const auto res = s.run(stream, graph.inputs(), graph.outputs());
  const TechLibrary tech = TechLibrary::cmos08();
  const Attribution model(design, tech);
  for (const auto& p : param_grid()) {
    const std::string at =
        where + str_format(" vdd=%g f=%g fsm=%d leak=%g", p.vdd, p.f_master,
                           p.include_controller_fsm,
                           p.leakage_mw_per_mlambda2);
    const auto ref = reference_estimate_power(design, res.activity, tech, p);
    expect_same_bits(estimate_power(design, res.activity, tech, p), ref, at);
    expect_same_bits(model.power(res.activity, p), ref, at);
  }
}

// (style, clocks) pairs of the grid: conventional, gated, multi-clock n=1..4.
constexpr std::pair<DesignStyle, int> kStyles[] = {
    {DesignStyle::ConventionalNonGated, 1}, {DesignStyle::ConventionalGated, 1},
    {DesignStyle::MultiClock, 1},           {DesignStyle::MultiClock, 2},
    {DesignStyle::MultiClock, 3},           {DesignStyle::MultiClock, 4}};

TEST(PowerFoldTest, BitIdenticalToReferenceAcrossSuite) {
  for (const auto& name : suite::all_names()) {
    const auto b = suite::by_name(name, 4);
    for (const auto& [style, clocks] : kStyles) {
      for (const bool latches : {true, false}) {
        for (const bool iso : {false, true}) {
          core::SynthesisOptions opts;
          opts.style = style;
          opts.num_clocks = clocks;
          opts.use_latches = latches;
          opts.operand_isolation = iso;
          const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
          check_fold(*syn.design, *b.graph, 1234,
                     str_format("%s %s%s%s", name.c_str(),
                                syn.design->style_name.c_str(),
                                latches ? "" : " dff", iso ? " iso" : ""));
        }
      }
    }
  }
}

TEST(PowerFoldTest, BitIdenticalToReferenceOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng grng(seed);
    dfg::RandomGraphConfig gcfg;
    gcfg.num_nodes = 6 + static_cast<unsigned>(seed % 19);
    gcfg.width = seed % 3 == 0 ? 16 : 8;
    const dfg::Graph g = dfg::random_graph(grng, gcfg);
    dfg::ResourceLimits limits;
    limits.default_limit = 2;
    const dfg::Schedule sched = dfg::schedule_list(g, limits);
    const auto& [style, clocks] = kStyles[seed % std::size(kStyles)];
    core::SynthesisOptions opts;
    opts.style = style;
    opts.num_clocks = clocks;
    opts.use_latches = seed % 2 == 0;
    opts.operand_isolation = seed % 4 < 2;
    const auto syn = core::synthesize(g, sched, opts);
    check_fold(*syn.design, g, seed, str_format("random seed %llu",
                                               static_cast<unsigned long long>(
                                                   seed)));
  }
}

// explore() folds each stream's Activity with power(); perfbench's replica
// calls estimate_power() on the same Activity. Both must give the same
// point, for the scalar path and for a Monte-Carlo bundle (per-stream
// sample means).
TEST(PowerFoldTest, ExplorePowerEqualsEstimatePower) {
  const TechLibrary tech = TechLibrary::cmos08();
  for (const std::size_t streams : {std::size_t{1}, std::size_t{8}}) {
    const auto b = suite::by_name("biquad", 4);
    core::ExplorerConfig cfg;
    cfg.max_clocks = 3;
    cfg.computations = 120;
    cfg.streams = streams;
    cfg.jobs = 1;
    cfg.power_params.include_controller_fsm = true;
    const auto explored = core::explore(*b.graph, *b.schedule, cfg);

    std::vector<sim::InputStream> bundle;
    if (streams == 1) {
      Rng rng(cfg.seed);
      bundle.push_back(sim::uniform_stream(rng, b.graph->inputs().size(),
                                           cfg.computations, b.graph->width()));
    } else {
      bundle = sim::uniform_streams(cfg.seed, streams, b.graph->inputs().size(),
                                    cfg.computations, b.graph->width());
    }
    ASSERT_FALSE(explored.points.empty());
    for (const auto& p : explored.points) {
      const auto syn = core::synthesize(*b.graph, *b.schedule, p.options);
      std::vector<PowerBreakdown> brs;
      if (streams == 1) {
        sim::Simulator s(*syn.design);
        const auto res =
            s.run(bundle[0], b.graph->inputs(), b.graph->outputs());
        brs.push_back(
            estimate_power(*syn.design, res.activity, tech, cfg.power_params));
      } else {
        sim::Simulator s(*syn.design, sim::Simulator::Mode::BitSliced);
        for (const auto& r :
             s.run_sliced(bundle, b.graph->inputs(), b.graph->outputs())) {
          brs.push_back(
              estimate_power(*syn.design, r.activity, tech, cfg.power_params));
        }
      }
      PowerBreakdown want;
      for (const auto& [name, field] : kFields) {
        std::vector<double> v;
        for (const auto& br : brs) v.push_back(br.*field);
        want.*field = sim::sample_stats(std::move(v)).mean;
      }
      expect_same_bits(p.power, want,
                       p.label + " streams=" + std::to_string(streams));
    }
  }
}

}  // namespace
}  // namespace mcrtl::power
