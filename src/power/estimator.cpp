#include "power/estimator.hpp"

#include "power/attribution.hpp"
#include "util/strings.hpp"

namespace mcrtl::power {

using rtl::CompKind;

std::string PowerBreakdown::to_string() const {
  return str_format(
      "total %.3f mW (comb %.3f, storage %.3f, clock %.3f, control %.3f, "
      "io %.3f, leak %.3f)",
      total, combinational, storage, clock_tree, control, io, leakage);
}

std::string AreaBreakdown::to_string() const {
  return str_format(
      "total %.0f λ² (alus %.0f, storage %.0f, muxes %.0f, controller %.0f, "
      "io %.0f, clocking %.0f, fixed %.0f)",
      total, alus, storage, muxes, controller, io, clocking, fixed);
}

PowerBreakdown estimate_power(const rtl::Design& design,
                              const sim::Activity& activity,
                              const TechLibrary& tech,
                              const PowerParams& params) {
  return Attribution(design, tech, params.vdd).power(activity, params);
}

AreaBreakdown estimate_area(const rtl::Design& design, const TechLibrary& tech) {
  const rtl::Netlist& nl = design.netlist;
  AreaBreakdown ab;
  bool any_latched_control = false;
  unsigned latched_bits = 0;
  for (const auto& sig : design.control.signals()) {
    if (sig.latched) {
      any_latched_control = true;
      latched_bits += sig.width;
    }
  }
  for (const auto& c : nl.components()) {
    switch (c.kind) {
      case CompKind::Alu:
        ab.alus += tech.alu_area(c.funcs, c.width);
        break;
      case CompKind::Register:
      case CompKind::Latch:
        ab.storage += tech.storage_area(c.kind, c.width);
        if (c.clock_gated) ab.clocking += tech.clock_gate_area();
        break;
      case CompKind::Mux:
        ab.muxes += tech.mux_area(c.inputs.size(), c.width);
        break;
      case CompKind::Bus:
        // One tri-state driver per connected source per bit; no gate tree.
        ab.muxes += 620.0 * static_cast<double>(c.inputs.size()) * c.width;
        break;
      case CompKind::IsoGate:
        ab.muxes += 450.0 * c.width;  // one holding latch per bit
        break;
      case CompKind::InputPort:
      case CompKind::OutputPort:
        ab.io += tech.io_port_area(c.width);
        break;
      default:
        break;
    }
  }
  ab.controller = tech.controller_area(design.control.total_bits(),
                                       design.clocks.period());
  if (any_latched_control) ab.controller += tech.control_latch_area(latched_bits);

  ab.fixed = tech.fixed_overhead_area();
  const double active =
      ab.alus + ab.storage + ab.muxes + ab.controller + ab.io + ab.clocking;
  ab.total = active * tech.wiring_overhead_factor() + ab.fixed;
  return ab;
}

}  // namespace mcrtl::power
