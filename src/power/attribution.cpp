#include "power/attribution.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace mcrtl::power {

using rtl::CompId;
using rtl::CompKind;

namespace {

const char* group_name(CompKind k) {
  switch (k) {
    case CompKind::Alu: return "fu";
    case CompKind::Mux:
    case CompKind::Bus: return "mux";
    case CompKind::IsoGate: return "iso";
    case CompKind::Register:
    case CompKind::Latch: return "storage";
    case CompKind::ControlSource: return "control";
    case CompKind::InputPort:
    case CompKind::OutputPort: return "io";
    case CompKind::Constant: return "const";
  }
  return "other";
}

}  // namespace

std::string domain_label(int domain) {
  return domain == 0 ? std::string("global") : str_format("clk%d", domain);
}

Attribution::Attribution(const rtl::Design& design, const TechLibrary& tech,
                         double vdd)
    : design_(&design), tech_(tech), v2_(vdd * vdd) {  // fF * V^2 = fJ
  const rtl::Netlist& nl = design.netlist;
  const int n = design.clocks.num_phases();
  model_.num_domains = n;

  // Worst-case step, in exact units: every bit of every net toggling in
  // both settles of a step, every storage element clocked, every phase
  // pulsing. Accumulated in 128 bits so a forged range cannot wrap.
  __extension__ typedef unsigned __int128 Wide;
  Wide worst = 0;
  net_cap_.assign(nl.num_nets(), 0.0);
  net_category_.assign(nl.num_nets(), kCombinational);
  model_.net_units.assign(nl.num_nets(), 0);
  model_.net_domain.assign(nl.num_nets(), 0);
  for (const auto& net : nl.nets()) {
    const std::size_t i = net.id.index();
    const rtl::Component& driver = nl.comp(net.driver);
    net_cap_[i] = tech.net_cap(nl, net);
    switch (driver.kind) {
      case CompKind::Register:
      case CompKind::Latch: net_category_[i] = kStorage; break;
      case CompKind::ControlSource: net_category_[i] = kControl; break;
      case CompKind::InputPort: net_category_[i] = kIo; break;
      default: break;  // mux, bus, ALU, iso gate, constant, output port
    }
    model_.net_units[i] = sim::EnergyModel::units(net_cap_[i] * v2_);
    worst += static_cast<Wide>(model_.net_units[i]) * 2 * net.width;
    model_.net_domain[i] =
        driver.partition > 0 ? static_cast<std::uint32_t>(driver.partition) : 0;
  }

  model_.storage_clock_units.assign(nl.num_components(), 0);
  model_.storage_domain.assign(nl.num_components(), 0);
  pin_cap_.assign(nl.num_components(), 0.0);
  gate_cap_.assign(nl.num_components(), 0.0);
  std::vector<int> sinks(static_cast<std::size_t>(n) + 1, 0);  // by phase
  for (const auto& c : nl.components()) {
    if (!rtl::is_storage(c.kind)) continue;
    const std::size_t i = c.id.index();
    pin_cap_[i] = tech.storage_clock_pin_cap(c.kind) * c.width;
    if (c.clock_gated) gate_cap_[i] = tech.clock_gate_event_cap();
    model_.storage_clock_units[i] =
        sim::EnergyModel::units(pin_cap_[i] * v2_ + gate_cap_[i] * v2_);
    worst += static_cast<Wide>(model_.storage_clock_units[i]);
    model_.storage_domain[i] =
        c.partition > 0 ? static_cast<std::uint32_t>(c.partition) : 0;
    if (c.clock_phase >= 1 && c.clock_phase <= n) {
      ++sinks[static_cast<std::size_t>(c.clock_phase)];
    }
  }

  tree_cap_.assign(sinks.size(), 0.0);
  model_.phase_pulse_units.assign(sinks.size(), 0);
  for (std::size_t p = 1; p < sinks.size(); ++p) {
    tree_cap_[p] = tech.clock_tree_cap(sinks[p]);
    model_.phase_pulse_units[p] = sim::EnergyModel::units(tree_cap_[p] * v2_);
    worst += static_cast<Wide>(model_.phase_pulse_units[p]);
  }
  MCRTL_CHECK_MSG(worst <= static_cast<Wide>(sim::EnergyModel::kMaxStepUnits),
                  "design '" << design.style_name
                             << "': worst-case step energy overflows the "
                                "power probe's fixed-point accumulators");
  model_.max_step_units = static_cast<std::int64_t>(worst);

  // Controller FSM (PowerParams::include_controller_fsm): a one-hot state
  // register of `period` single-bit DFFs clocked every master cycle (a
  // controller is never gated), exactly two state bits toggling per cycle,
  // and a small decode-plane load per control bit driven from the state
  // wires. Every master cycle switches this capacitance once.
  const double clock_pins = static_cast<double>(design.control.period()) *
                            tech.storage_clock_pin_cap(CompKind::Register);
  const double state_toggles = 2.0 * 60.0;  // Q + decode fan-in per bit
  const double decode = 15.0 * design.control.total_bits();
  fsm_cap_ = clock_pins + state_toggles + decode;
}

PowerBreakdown Attribution::power(const sim::Activity& activity,
                                  const PowerParams& params) const {
  MCRTL_CHECK_MSG(activity.steps > 0, "no activity: simulate before estimating");
  static constexpr double PowerBreakdown::*kField[] = {
      &PowerBreakdown::combinational, &PowerBreakdown::storage,
      &PowerBreakdown::control, &PowerBreakdown::io};
  const double v2 = params.vdd * params.vdd;
  // fF-per-cycle -> mW at f_master: 1e-15 F * V^2 * f * 1e3 mW/W.
  const double scale = v2 * params.f_master * 1e-15 * 1e3 /
                       static_cast<double>(activity.steps);

  PowerBreakdown pb;
  for (std::size_t i = 0; i < net_cap_.size(); ++i) {
    const std::uint64_t toggles = activity.net_toggles[i];
    if (toggles == 0) continue;
    pb.*kField[net_category_[i]] +=
        net_cap_[i] * static_cast<double>(toggles) * scale;
  }
  // Storage clock pins, and the gating cell's charge as clock_tree.
  for (const auto& c : design_->netlist.components()) {
    if (!rtl::is_storage(c.kind)) continue;
    const std::size_t i = c.id.index();
    const std::uint64_t events = activity.storage_clock_events[i];
    if (events == 0) continue;
    const double e = static_cast<double>(events);
    pb.storage += pin_cap_[i] * e * scale;
    if (c.clock_gated) pb.clock_tree += gate_cap_[i] * e * scale;
  }
  for (std::size_t p = 1; p < tree_cap_.size(); ++p) {
    const std::uint64_t pulses = activity.phase_pulses[p];
    if (pulses == 0) continue;
    pb.clock_tree += tree_cap_[p] * static_cast<double>(pulses) * scale;
  }

  if (params.include_controller_fsm) {
    pb.control += fsm_cap_ * static_cast<double>(activity.steps) * scale;
  }
  if (params.leakage_mw_per_mlambda2 > 0.0) {
    const AreaBreakdown area = estimate_area(*design_, tech_);
    pb.leakage = params.leakage_mw_per_mlambda2 * area.total / 1e6;
  }
  pb.total = pb.combinational + pb.storage + pb.clock_tree + pb.control +
             pb.io + pb.leakage;
  return pb;
}

AttributionReport Attribution::attribute(const sim::Activity& activity) const {
  static constexpr double CategoryEnergy::*kField[] = {
      &CategoryEnergy::combinational_fj, &CategoryEnergy::storage_fj,
      &CategoryEnergy::control_fj, &CategoryEnergy::io_fj};
  const rtl::Netlist& nl = design_->netlist;
  const int n = model_.num_domains;

  AttributionReport rep;
  rep.steps = activity.steps;
  rep.domain_fj.assign(static_cast<std::size_t>(n) + 1, 0.0);

  // Fold net energy onto the driving component and its category.
  std::vector<double> comp_fj(nl.num_components(), 0.0);
  std::vector<std::uint64_t> comp_toggles(nl.num_components(), 0);
  for (const auto& net : nl.nets()) {
    const std::size_t i = net.id.index();
    const std::uint64_t toggles = activity.net_toggles[i];
    rep.total_toggles += toggles;
    if (toggles == 0) continue;
    const double fj = net_cap_[i] * v2_ * static_cast<double>(toggles);
    comp_fj[net.driver.index()] += fj;
    comp_toggles[net.driver.index()] += toggles;
    rep.category.*kField[net_category_[i]] += fj;
  }

  // Storage clock pins stay with the element (its row and domain); the
  // gating cell's charge is booked as clock_tree in the category sums, as
  // power() does.
  for (const auto& c : nl.components()) {
    if (!rtl::is_storage(c.kind)) continue;
    const std::size_t i = c.id.index();
    const std::uint64_t events = activity.storage_clock_events[i];
    if (events == 0) continue;
    const double e = static_cast<double>(events);
    const double pin_fj = pin_cap_[i] * v2_;
    const double gate_fj = gate_cap_[i] * v2_;
    comp_fj[i] += (pin_fj + gate_fj) * e;
    rep.category.storage_fj += pin_fj * e;
    rep.category.clock_tree_fj += gate_fj * e;
  }

  for (const auto& c : nl.components()) {
    const std::size_t i = c.id.index();
    const std::uint64_t events =
        rtl::is_storage(c.kind) ? activity.storage_clock_events[i] : 0;
    if (comp_fj[i] == 0.0 && comp_toggles[i] == 0 && events == 0) continue;
    AttributionRow row;
    row.component = c.name;
    row.group = group_name(c.kind);
    const std::string& op =
        i < design_->comp_op.size() ? design_->comp_op[i] : std::string();
    row.op = op.empty() ? row.group : op;
    row.domain = c.partition > 0 ? c.partition : 0;
    row.toggles = comp_toggles[i];
    row.clock_events = events;
    row.energy_fj = comp_fj[i];
    rep.domain_fj[static_cast<std::size_t>(row.domain)] += row.energy_fj;
    rep.total_fj += row.energy_fj;
    rep.rows.push_back(std::move(row));
  }

  // One pseudo-row per phase distribution tree, in the pulsing domain.
  for (int p = 1; p <= n; ++p) {
    const std::uint64_t pulses =
        activity.phase_pulses[static_cast<std::size_t>(p)];
    if (pulses == 0) continue;
    AttributionRow row;
    row.component = str_format("clk%d.tree", p);
    row.group = "clock_tree";
    row.op = "clock_tree";
    row.domain = p;
    row.toggles = pulses;
    row.energy_fj = tree_cap_[static_cast<std::size_t>(p)] * v2_ *
                    static_cast<double>(pulses);
    rep.category.clock_tree_fj += row.energy_fj;
    rep.domain_fj[static_cast<std::size_t>(p)] += row.energy_fj;
    rep.total_fj += row.energy_fj;
    rep.rows.push_back(std::move(row));
  }

  std::sort(rep.rows.begin(), rep.rows.end(),
            [](const AttributionRow& a, const AttributionRow& b) {
              if (a.energy_fj != b.energy_fj) return a.energy_fj > b.energy_fj;
              return a.component < b.component;
            });
  return rep;
}

double AttributionReport::total_mw(double f_hz) const {
  if (steps == 0) return 0.0;
  // fJ per run -> mW: 1e-15 J * f/steps cycles-per-second * 1e3 mW/W.
  return total_fj * f_hz / static_cast<double>(steps) * 1e-12;
}

std::string AttributionReport::collapsed_stacks() const {
  std::string out;
  for (const auto& r : rows) {
    out += str_format("%s;%s;%s %lld\n", domain_label(r.domain).c_str(),
                      r.component.c_str(), r.op.c_str(),
                      static_cast<long long>(std::llround(r.energy_fj)));
  }
  return out;
}

std::string AttributionReport::top_table(std::size_t k) const {
  TextTable t({"component", "group", "domain", "op", "toggles", "energy[fJ]",
               "share[%]"},
              {Align::Left, Align::Left, Align::Left, Align::Left, Align::Right,
               Align::Right, Align::Right});
  const std::size_t limit = std::min(k, rows.size());
  for (std::size_t i = 0; i < limit; ++i) {
    const auto& r = rows[i];
    t.add_row({r.component, r.group, domain_label(r.domain), r.op,
               std::to_string(r.toggles), format_fixed(r.energy_fj, 1),
               format_fixed(total_fj > 0.0 ? 100.0 * r.energy_fj / total_fj
                                           : 0.0,
                            2)});
  }
  return t.render();
}

void publish_power_tracks(const sim::PowerProbe& probe) {
  if (!obs::enabled()) return;
  auto& reg = obs::Registry::instance();
  for (int d = 0; d <= probe.num_domains(); ++d) {
    std::vector<obs::TrackSample> samples;
    samples.reserve(probe.steps());
    for (std::size_t s = 0; s < probe.steps(); ++s) {
      samples.emplace_back(static_cast<double>(s), probe.step_fj(s, d));
    }
    reg.counter_track("power." + domain_label(d), std::move(samples));
  }
}

std::string render_period_profile(const sim::PowerProbe& probe,
                                  const rtl::ClockScheme& clocks) {
  const auto period = static_cast<std::size_t>(clocks.period());
  std::vector<double> per_step(period, 0.0);
  std::vector<std::size_t> counts(period, 0);
  for (std::size_t s = 0; s < probe.steps(); ++s) {
    for (int d = 0; d <= probe.num_domains(); ++d) {
      per_step[s % period] += probe.step_fj(s, d);
    }
    ++counts[s % period];
  }
  double peak = 1.0;
  for (std::size_t t = 0; t < period; ++t) {
    if (counts[t]) per_step[t] /= static_cast<double>(counts[t]);
    peak = std::max(peak, per_step[t]);
  }
  std::string out;
  for (std::size_t t = 0; t < period; ++t) {
    const auto bars = static_cast<std::size_t>(40.0 * per_step[t] / peak + 0.5);
    out += str_format("step %2d (CLK_%d) |%-40s| %8.0f fJ\n",
                      static_cast<int>(t + 1),
                      clocks.phase_of_step(static_cast<int>(t + 1)),
                      std::string(bars, '#').c_str(), per_step[t]);
  }
  return out;
}

}  // namespace mcrtl::power
