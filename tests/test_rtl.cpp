// Unit tests for the RTL layer: clock scheme, netlist DRC, control plan.
#include <gtest/gtest.h>

#include "rtl/clock.hpp"
#include "rtl/control.hpp"
#include "rtl/netlist.hpp"
#include "util/error.hpp"

namespace mcrtl::rtl {
namespace {

TEST(ClockSchemeTest, SinglePhasePeriod) {
  ClockScheme cs(1, 5);
  EXPECT_EQ(cs.num_phases(), 1);
  EXPECT_EQ(cs.period(), 6);  // T + 1 boundary step
  for (int t = 0; t <= 12; ++t) EXPECT_EQ(cs.phase_of_step(t), 1);
}

TEST(ClockSchemeTest, PeriodIsMultipleOfPhases) {
  EXPECT_EQ(ClockScheme(2, 5).period(), 6);
  EXPECT_EQ(ClockScheme(3, 5).period(), 6);
  EXPECT_EQ(ClockScheme(3, 6).period(), 9);
  EXPECT_EQ(ClockScheme(4, 5).period(), 8);
}

TEST(ClockSchemeTest, PaperPartitionRule) {
  ClockScheme cs(2, 5);
  EXPECT_EQ(cs.phase_of_step(1), 1);  // odd steps -> CLK_1
  EXPECT_EQ(cs.phase_of_step(2), 2);  // even steps -> CLK_2
  EXPECT_EQ(cs.phase_of_step(3), 1);
  EXPECT_EQ(cs.phase_of_step(0), 2);  // boundary edge = phase n
}

TEST(ClockSchemeTest, PhasesNeverOverlap) {
  for (int n = 1; n <= 5; ++n) {
    ClockScheme cs(n, 7);
    for (int t = 1; t <= 3 * cs.period(); ++t) {
      int active = 0;
      for (int p = 1; p <= n; ++p) active += cs.pulses_in_step(p, t) ? 1 : 0;
      EXPECT_EQ(active, 1) << "n=" << n << " t=" << t;
    }
  }
}

TEST(ClockSchemeTest, EveryPhaseFiresEveryNthStep) {
  ClockScheme cs(3, 8);
  for (int p = 1; p <= 3; ++p) {
    int prev = -100;
    for (int t = 1; t <= 30; ++t) {
      if (cs.pulses_in_step(p, t)) {
        if (prev > 0) {
          EXPECT_EQ(t - prev, 3);
        }
        prev = t;
      }
    }
  }
}

TEST(ClockSchemeTest, PulsesOverCounts) {
  ClockScheme cs(2, 5);
  EXPECT_EQ(cs.pulses_over(1, 6), 3);   // steps 1,3,5
  EXPECT_EQ(cs.pulses_over(2, 6), 3);   // steps 2,4,6
  EXPECT_EQ(cs.pulses_over(1, 1), 1);
  EXPECT_EQ(cs.pulses_over(2, 1), 0);
  ClockScheme cs3(3, 5);
  EXPECT_EQ(cs3.pulses_over(3, 12), 4);
}

TEST(ClockSchemeTest, PulsesMatchStepEnumeration) {
  for (int n = 1; n <= 4; ++n) {
    ClockScheme cs(n, 6);
    for (int p = 1; p <= n; ++p) {
      long counted = 0;
      for (int t = 1; t <= 25; ++t) counted += cs.pulses_in_step(p, t) ? 1 : 0;
      EXPECT_EQ(counted, cs.pulses_over(p, 25));
    }
  }
}

TEST(ClockSchemeTest, WaveformShape) {
  ClockScheme cs(2, 3);
  const std::string w = cs.waveform();
  EXPECT_NE(w.find("CLK_1"), std::string::npos);
  EXPECT_NE(w.find("CLK_2"), std::string::npos);
  EXPECT_NE(w.find("#"), std::string::npos);
}

TEST(NetlistTest, BuildAndValidateMinimal) {
  Netlist nl("min");
  const CompId in = nl.add_component(CompKind::InputPort, "in", 8);
  const CompId out = nl.add_component(CompKind::OutputPort, "out", 8);
  nl.connect_input(out, nl.comp(in).output);
  nl.validate();
  EXPECT_EQ(nl.num_components(), 2u);
  EXPECT_EQ(nl.num_nets(), 1u);
}

TEST(NetlistTest, MuxNeedsSelectAndTwoInputs) {
  Netlist nl("m");
  const CompId a = nl.add_component(CompKind::InputPort, "a", 4);
  const CompId b = nl.add_component(CompKind::InputPort, "b", 4);
  const CompId m = nl.add_component(CompKind::Mux, "m", 4);
  nl.connect_input(m, nl.comp(a).output);
  EXPECT_THROW(nl.validate(), ValidationError);  // 1 input
  nl.connect_input(m, nl.comp(b).output);
  EXPECT_THROW(nl.validate(), ValidationError);  // no select
  const CompId sel = nl.add_component(CompKind::ControlSource, "sel", 1);
  nl.set_select(m, nl.comp(sel).output);
  const CompId out = nl.add_component(CompKind::OutputPort, "o", 4);
  nl.connect_input(out, nl.comp(m).output);
  nl.validate();
}

TEST(NetlistTest, WidthMismatchRejected) {
  Netlist nl("w");
  const CompId a = nl.add_component(CompKind::InputPort, "a", 4);
  const CompId out = nl.add_component(CompKind::OutputPort, "o", 8);
  nl.connect_input(out, nl.comp(a).output);
  EXPECT_THROW(nl.validate(), ValidationError);
}

TEST(NetlistTest, AluNeedsFunctions) {
  Netlist nl("alu");
  const CompId a = nl.add_component(CompKind::InputPort, "a", 4);
  const CompId alu = nl.add_component(CompKind::Alu, "u", 4);
  nl.connect_input(alu, nl.comp(a).output);
  nl.connect_input(alu, nl.comp(a).output);
  const CompId out = nl.add_component(CompKind::OutputPort, "o", 4);
  nl.connect_input(out, nl.comp(alu).output);
  EXPECT_THROW(nl.validate(), ValidationError);  // empty func set
  nl.comp_mut(alu).funcs = {dfg::Op::Add};
  nl.validate();
}

TEST(NetlistTest, CombOrderTopological) {
  Netlist nl("order");
  const CompId a = nl.add_component(CompKind::InputPort, "a", 4);
  const CompId alu1 = nl.add_component(CompKind::Alu, "u1", 4);
  const CompId alu2 = nl.add_component(CompKind::Alu, "u2", 4);
  // u2 depends on u1.
  nl.comp_mut(alu1).funcs = {dfg::Op::Add};
  nl.comp_mut(alu2).funcs = {dfg::Op::Sub};
  nl.connect_input(alu1, nl.comp(a).output);
  nl.connect_input(alu1, nl.comp(a).output);
  nl.connect_input(alu2, nl.comp(alu1).output);
  nl.connect_input(alu2, nl.comp(a).output);
  const auto order = nl.comb_order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], alu1);
  EXPECT_EQ(order[1], alu2);
}

TEST(NetlistTest, StorageBreaksCombCycles) {
  Netlist nl("cyc");
  const CompId reg = nl.add_component(CompKind::Register, "r", 4);
  const CompId alu = nl.add_component(CompKind::Alu, "u", 4);
  nl.comp_mut(alu).funcs = {dfg::Op::Add};
  nl.connect_input(alu, nl.comp(reg).output);
  nl.connect_input(alu, nl.comp(reg).output);
  nl.connect_input(reg, nl.comp(alu).output);  // feedback through storage: OK
  nl.comp_mut(reg).clock_phase = 1;
  const CompId out = nl.add_component(CompKind::OutputPort, "o", 4);
  nl.connect_input(out, nl.comp(reg).output);
  nl.validate();
  EXPECT_EQ(nl.comb_order().size(), 1u);
}

TEST(ControlPlanTest, DirectLineFollowsTable) {
  ClockScheme cs(1, 3);
  ControlPlan cp(cs);
  Netlist nl("c");
  const CompId src = nl.add_component(CompKind::ControlSource, "s", 2);
  const unsigned sig = cp.add_signal("s", SignalRole::MuxSelect, 2, false, 1, src);
  cp.set_value(sig, 2, 3);
  EXPECT_EQ(cp.line_value(sig, 1), 0u);
  EXPECT_EQ(cp.line_value(sig, 2), 3u);
  EXPECT_EQ(cp.line_value(sig, 3), 0u);
}

TEST(ControlPlanTest, LatchedLineHoldsAcrossPhases) {
  ClockScheme cs(2, 5);  // period 6
  ControlPlan cp(cs);
  Netlist nl("c");
  const CompId src = nl.add_component(CompKind::ControlSource, "s", 2);
  // Signal of partition 1 (odd steps).
  const unsigned sig = cp.add_signal("s", SignalRole::MuxSelect, 2, true, 1, src);
  cp.set_value(sig, 1, 1);
  cp.set_value(sig, 3, 2);
  cp.set_value(sig, 5, 3);
  // During even steps the line holds the last odd-step value.
  EXPECT_EQ(cp.line_value(sig, 1), 1u);
  EXPECT_EQ(cp.line_value(sig, 2), 1u);
  EXPECT_EQ(cp.line_value(sig, 3), 2u);
  EXPECT_EQ(cp.line_value(sig, 4), 2u);
  EXPECT_EQ(cp.line_value(sig, 5), 3u);
  EXPECT_EQ(cp.line_value(sig, 6), 3u);
}

TEST(ControlPlanTest, LatchedLineWrapsPeriod) {
  ClockScheme cs(3, 5);  // period 6; partition 2 pulses at steps 2, 5
  ControlPlan cp(cs);
  Netlist nl("c");
  const CompId src = nl.add_component(CompKind::ControlSource, "s", 1);
  const unsigned sig = cp.add_signal("s", SignalRole::Load, 1, true, 2, src);
  cp.set_value(sig, 5, 1);
  // Step 1 precedes partition 2's first pulse: holds the previous period's
  // step-5 value.
  EXPECT_EQ(cp.line_value(sig, 1), 1u);
  EXPECT_EQ(cp.line_value(sig, 2), 0u);
  EXPECT_EQ(cp.line_value(sig, 4), 0u);
  EXPECT_EQ(cp.line_value(sig, 5), 1u);
  EXPECT_EQ(cp.line_value(sig, 6), 1u);
}

TEST(ControlPlanTest, HoldFillKeepsCaredValues) {
  ClockScheme cs(1, 4);  // period 5
  ControlPlan cp(cs);
  Netlist nl("c");
  const CompId src = nl.add_component(CompKind::ControlSource, "s", 2);
  const unsigned sig = cp.add_signal("s", SignalRole::MuxSelect, 2, false, 1, src);
  cp.set_value(sig, 2, 2);
  cp.set_value(sig, 4, 1);
  std::vector<bool> care(6, false);
  care[2] = care[4] = true;
  cp.hold_fill(sig, care);
  EXPECT_EQ(cp.table_value(sig, 2), 2u);
  EXPECT_EQ(cp.table_value(sig, 3), 2u);  // held
  EXPECT_EQ(cp.table_value(sig, 4), 1u);
  EXPECT_EQ(cp.table_value(sig, 5), 1u);  // held
  EXPECT_EQ(cp.table_value(sig, 1), 1u);  // wrapped from last care
}

TEST(ControlPlanTest, ValuesTruncatedToWidth) {
  ClockScheme cs(1, 2);
  ControlPlan cp(cs);
  Netlist nl("c");
  const CompId src = nl.add_component(CompKind::ControlSource, "s", 2);
  const unsigned sig = cp.add_signal("s", SignalRole::MuxSelect, 2, false, 1, src);
  cp.set_value(sig, 1, 0xFF);
  EXPECT_EQ(cp.table_value(sig, 1), 3u);
}

TEST(ControlPlanTest, TotalBits) {
  ClockScheme cs(1, 2);
  ControlPlan cp(cs);
  Netlist nl("c");
  const CompId s1 = nl.add_component(CompKind::ControlSource, "a", 2);
  const CompId s2 = nl.add_component(CompKind::ControlSource, "b", 1);
  cp.add_signal("a", SignalRole::MuxSelect, 2, false, 1, s1);
  cp.add_signal("b", SignalRole::Load, 1, false, 1, s2);
  EXPECT_EQ(cp.total_bits(), 3u);
}

}  // namespace
}  // namespace mcrtl::rtl
