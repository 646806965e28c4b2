// Power and area estimation.
//
// Power follows the paper's §5.1 methodology: for every node (net) the
// simulator supplies a transition count, which is weighted with the node's
// load capacitance from the technology model under P = C · V² · f_node with
// V = 4.65 V. Clock pins, clock trees and gating cells are accounted per
// delivered edge/pulse. The result is broken down by category so the
// mechanism of each saving (gated storage, f/n clock trees, quiet
// combinational logic) is visible. The capacitance table and the fold live
// in power::Attribution (power/attribution.hpp); estimate_power() is that
// fold on a model built for the one call.
#pragma once

#include <string>

#include "power/tech_library.hpp"
#include "rtl/design.hpp"
#include "sim/activity.hpp"

namespace mcrtl::power {

/// Electrical operating point.
struct PowerParams {
  double vdd = 4.65;         ///< volts (the paper's value)
  double f_master = 40.0e6;  ///< master clock frequency in Hz
  /// Static (leakage) power per Mλ² of area, in mW. The paper's §1 notes
  /// static dissipation exists but is dominated by switching in this
  /// technology generation, and the COMPASS methodology it measured with is
  /// purely transition-based — so the reproduction default is 0. Setting
  /// it > 0 adds an area-proportional tax (which the multi-clock scheme's
  /// extra ALUs pay; see the leakage sensitivity test).
  double leakage_mw_per_mlambda2 = 0.0;
  /// Model the controller FSM's own switching (one-hot state register of
  /// `period` flip-flops clocked every master cycle + a decode plane per
  /// control bit). Off by default: the paper's evaluation compares
  /// *datapath* power management schemes, and the FSM cost is essentially
  /// identical across the five styles of each table (same period); turning
  /// it on adds the same near-constant term to every row.
  bool include_controller_fsm = false;
};

/// Average power in milliwatts, by category.
struct PowerBreakdown {
  double combinational = 0.0;  ///< mux/ALU data nets
  double storage = 0.0;        ///< storage Q nets, D pins, internal clocking
  double clock_tree = 0.0;     ///< phase distribution trees + gating cells
  double control = 0.0;        ///< controller output lines
  double io = 0.0;             ///< primary input/output nets
  double leakage = 0.0;        ///< static dissipation (area-proportional)
  double total = 0.0;

  std::string to_string() const;
};

/// Estimate average power of `design` given the measured `activity`:
/// Attribution(design, tech, params.vdd).power(activity, params). Throws
/// when the design's worst-case step overflows the energy model's range.
PowerBreakdown estimate_power(const rtl::Design& design,
                              const sim::Activity& activity,
                              const TechLibrary& tech,
                              const PowerParams& params = {});

/// Area in λ², by category.
struct AreaBreakdown {
  double alus = 0.0;
  double storage = 0.0;
  double muxes = 0.0;
  double controller = 0.0;
  double io = 0.0;
  double clocking = 0.0;  ///< gating cells, per-phase tree stubs
  double fixed = 0.0;     ///< pads, clock generation
  double total = 0.0;     ///< includes the wiring overhead factor

  std::string to_string() const;
};

/// Estimate layout area of `design`.
AreaBreakdown estimate_area(const rtl::Design& design, const TechLibrary& tech);

}  // namespace mcrtl::power
