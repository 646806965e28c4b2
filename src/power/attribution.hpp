// Hierarchical power attribution: the one energy model of a design, and
// the per-net accounting rolled up to components, clock domains and
// DFG-level operations.
//
// `Attribution` is built once per design. Its constructor is the only place
// that turns a design plus a TechLibrary into energy terms: it records one
// capacitance table in fF — per net (with the net's PowerBreakdown category,
// from its driver's kind), per storage element (clock pin cap * width, plus
// the gate event cap when the pin is gated), per clock phase (the tree cap
// for the phase's sink count) and the optional controller FSM's load per
// master cycle. Every energy figure is a fold over that table:
//
//  * `power(Activity, PowerParams)` — average power in mW by category, the
//    paper's P = sum C_node * Vdd^2 * f (estimate_power() is this fold on a
//    freshly built model).
//  * `attribute(Activity)` — the profiler view: weights (cap * Vdd^2, fJ)
//    applied to a finished run's toggle counts give an AttributionReport
//    with one row per component (plus one pseudo-row per clock-tree root),
//    each carrying its group (fu/mux/iso/storage/...), clock domain (0 =
//    global, 1..n = partition) and the synthesis-time DFG-op label recorded
//    in Design::comp_op. Integer toggle counts are conserved exactly: the
//    component rows' toggles sum to the Activity's total net toggles, and
//    every fJ of the report total is attributed to exactly one row. The
//    categories reconcile with power() via power_mw = total_fj * f_master /
//    steps * 1e-12.
//  * `energy_model()` — the same weights as a sim::EnergyModel in exact
//    fixed-point units (2^-20 fJ), which a sim::PowerProbe accumulates per
//    step and per domain while the simulator runs (see sim/power_probe.hpp)
//    — the probe's whole-run totals agree with attribute() on the same
//    Activity to the weights' rounding (~1e-9 relative). Building the model
//    rejects a design whose worst-case step would overflow the probe.
//    `publish_power_tracks()` turns a probe's waveform into obs counter
//    tracks, and `render_period_profile()` folds it onto one period.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "power/estimator.hpp"
#include "power/tech_library.hpp"
#include "rtl/design.hpp"
#include "sim/activity.hpp"
#include "sim/power_probe.hpp"

namespace mcrtl::power {

/// One leaf of the attribution hierarchy: a netlist component, or (for
/// group "clock_tree") one phase's clock distribution root.
struct AttributionRow {
  std::string component;  ///< component name, or "clk<p>.tree" for tree rows
  std::string group;      ///< fu|mux|iso|storage|control|io|const|clock_tree
  std::string op;         ///< DFG-op label (Design::comp_op); group if none
  int domain = 0;         ///< 0 = global, 1..n = clock partition
  std::uint64_t toggles = 0;  ///< output-net bit toggles (tree rows: pulses)
  std::uint64_t clock_events = 0;  ///< storage rows: delivered clock events
  double energy_fj = 0.0;  ///< everything attributable to this row, incl.
                           ///< clock pin + gate energy for storage rows
};

/// Category sums matching PowerBreakdown's switching fields, in fJ. Unlike
/// the rows (where a storage element's clock-gate energy stays with the
/// element), gate energy counts as clock_tree here, as power() books it.
struct CategoryEnergy {
  double combinational_fj = 0.0;
  double storage_fj = 0.0;
  double clock_tree_fj = 0.0;
  double control_fj = 0.0;
  double io_fj = 0.0;
};

struct AttributionReport {
  /// Rows sorted hottest-first (energy desc, then name asc — deterministic
  /// under FP ties). Zero-energy, zero-toggle components are omitted.
  std::vector<AttributionRow> rows;
  /// Energy per clock domain, index 0 = global, 1..n = partitions.
  std::vector<double> domain_fj;
  CategoryEnergy category;
  double total_fj = 0.0;           ///< == sum of rows[].energy_fj
  std::uint64_t total_toggles = 0; ///< == sum of Activity::net_toggles
  std::uint64_t steps = 0;         ///< master cycles of the attributed run

  /// Average power of the whole report in mW at master frequency `f_hz`.
  double total_mw(double f_hz) const;

  /// Flamegraph collapsed-stack lines: "domain;component;op <fJ>\n" with
  /// integer-rounded fJ values, one line per row, hottest first. Feed to
  /// flamegraph.pl / speedscope / inferno as a folded-stacks file.
  std::string collapsed_stacks() const;

  /// Human-readable top-k hotspot table (util::table).
  std::string top_table(std::size_t k) const;
};

/// The per-design capacitance table and its folds. Construct once per
/// synthesized design (the design must outlive it); every fold is then a
/// pure function of an Activity record.
class Attribution {
 public:
  /// `vdd` sets the fJ weights of attribute() and energy_model(); power()
  /// takes its operating point from PowerParams.
  Attribution(const rtl::Design& design, const TechLibrary& tech,
              double vdd = 4.65);

  /// The weights in the simulator-facing form consumed by
  /// sim::PowerProbe. Valid as long as this Attribution is alive.
  const sim::EnergyModel& energy_model() const { return model_; }

  /// Average power of a whole-run Activity record in mW, by category.
  PowerBreakdown power(const sim::Activity& activity,
                       const PowerParams& params) const;

  /// Weight a whole-run Activity record into the hierarchical report.
  AttributionReport attribute(const sim::Activity& activity) const;

 private:
  /// PowerBreakdown switching category of a net, from its driver's kind.
  enum Category : std::uint8_t { kCombinational, kStorage, kControl, kIo };

  const rtl::Design* design_;
  TechLibrary tech_;  ///< for the leakage term's area
  double v2_;         ///< Vdd^2 of the fJ weights
  sim::EnergyModel model_;
  // The capacitance table, fF.
  std::vector<double> net_cap_;           ///< by NetId, per bit toggle
  std::vector<Category> net_category_;    ///< by NetId
  std::vector<double> pin_cap_;           ///< by CompId: clock pin * width
  std::vector<double> gate_cap_;          ///< by CompId: gate event (gated)
  std::vector<double> tree_cap_;          ///< by phase 1..n, per pulse
  double fsm_cap_ = 0.0;                  ///< controller FSM, per cycle
};

/// Publish a probe's per-domain waveform as obs counter tracks named
/// "power.global" / "power.clk<p>" (fJ per master cycle, timestamped by
/// step index). The probe must keep its waveform (PowerProbe::kWaveform).
/// No-op while obs collection is disabled.
void publish_power_tracks(const sim::PowerProbe& probe);

/// ASCII bar chart of a probe's whole-design waveform folded onto one
/// master period of `clocks` (mean over computations): one row per period
/// step. The probe must keep its waveform (PowerProbe::kWaveform).
std::string render_period_profile(const sim::PowerProbe& probe,
                                  const rtl::ClockScheme& clocks);

/// Display label of a clock domain: "global" for 0, "clk<d>" otherwise.
std::string domain_label(int domain);

}  // namespace mcrtl::power
