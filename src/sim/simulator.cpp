#include "sim/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "obs/obs.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace mcrtl::sim {

using rtl::CompId;
using rtl::CompKind;
using rtl::NetId;

namespace {
// run()'s time-sliced threshold; only testing::ScopedTimeSlicedThreshold
// moves it off kTimeSlicedMinComputations.
std::atomic<std::size_t> g_time_sliced_min{
    Simulator::kTimeSlicedMinComputations};
}  // namespace

namespace testing {
ScopedTimeSlicedThreshold::ScopedTimeSlicedThreshold(
    std::size_t min_computations)
    : saved_(g_time_sliced_min.exchange(min_computations)) {}
ScopedTimeSlicedThreshold::~ScopedTimeSlicedThreshold() {
  g_time_sliced_min.store(saved_);
}
}  // namespace testing

Simulator::Simulator(const rtl::Design& design, Mode mode)
    : design_(&design),
      mode_(mode),
      comb_order_(design.netlist.comb_order()),
      net_value_(design.netlist.num_nets(), 0),
      storage_q_(design.netlist.num_components(), 0) {
  const rtl::Netlist& nl = design.netlist;
  storage_by_phase_.resize(static_cast<std::size_t>(design.clocks.num_phases()) +
                           1);
  for (const auto& c : nl.components()) {
    if (rtl::is_storage(c.kind)) {
      storage_by_phase_[static_cast<std::size_t>(c.clock_phase)].push_back(c.id);
    }
  }
  if (mode_ != Mode::Oblivious) {  // EventDriven and BitSliced both levelize
    const std::vector<int> level = nl.comb_levels();
    for (const auto& c : nl.components()) {
      if (level[c.id.index()] >= 0) slot_comp_.push_back(c.id);
    }
    std::stable_sort(slot_comp_.begin(), slot_comp_.end(),
                     [&](CompId a, CompId b) {
                       return level[a.index()] < level[b.index()];
                     });
    std::vector<std::uint32_t> slot_of(nl.num_components(), 0);
    for (std::size_t i = 0; i < slot_comp_.size(); ++i) {
      slot_of[slot_comp_[i].index()] = static_cast<std::uint32_t>(i);
    }
    dirty_.assign((slot_comp_.size() + 63) / 64, 0);
    first_dirty_ = dirty_.size();
    const auto per_net = nl.comb_fanout();
    fanout_offset_.reserve(per_net.size() + 1);
    fanout_offset_.push_back(0);
    for (const auto& readers : per_net) {
      for (CompId r : readers) fanout_.push_back(slot_of[r.index()]);
      fanout_offset_.push_back(static_cast<std::uint32_t>(fanout_.size()));
    }
  }
  const rtl::ControlPlan& plan = design.control;
  const int P = design.clocks.period();
  for (const auto& sig : plan.signals()) {
    const NetId net = nl.comp(sig.source).output;
    control_lines_.emplace_back(net, sig.index);
    control_reset_writes_.emplace_back(net, plan.line_value(sig.index, P));
  }
  phase_by_step_.resize(static_cast<std::size_t>(P) + 1);
  for (int t = 1; t <= P; ++t) {
    phase_by_step_[static_cast<std::size_t>(t)] = design.clocks.phase_of_step(t);
  }
  if (mode_ == Mode::Oblivious) return;  // Oblivious re-derives per step.
  // Tabulate controller delivery once: line values repeat every period, so
  // the per-step controller loop reduces to replaying the per-step deltas.
  control_step_writes_.resize(static_cast<std::size_t>(P) + 1);
  for (const auto& [net, sig_index] : control_lines_) {
    std::uint64_t prev = plan.line_value(sig_index, P);
    for (int t = 1; t <= P; ++t) {
      const std::uint64_t v = plan.line_value(sig_index, t);
      if (v != prev) {
        control_step_writes_[static_cast<std::size_t>(t)].emplace_back(net, v);
        prev = v;
      }
    }
  }
  // Static phase-edge schedule: valid when every storage load pin is fed by
  // a controller line (whose per-step value is tabulated and periodic).
  sig_of_net_.assign(nl.num_nets(), -1);
  for (const auto& sig : plan.signals()) {
    sig_of_net_[nl.comp(sig.source).output.index()] =
        static_cast<int>(sig.index);
  }
  static_edges_ = true;
  for (const auto& c : nl.components()) {
    if (rtl::is_storage(c.kind) && c.load.valid() &&
        sig_of_net_[c.load.index()] < 0) {
      static_edges_ = false;
      break;
    }
  }
  if (static_edges_) {
    edge_clock_events_.resize(static_cast<std::size_t>(P) + 1);
    edge_captures_.resize(static_cast<std::size_t>(P) + 1);
    for (int t = 1; t <= P; ++t) {
      const int phase = phase_by_step_[static_cast<std::size_t>(t)];
      for (CompId cid : storage_by_phase_[static_cast<std::size_t>(phase)]) {
        const rtl::Component& c = nl.comp(cid);
        const bool load =
            !c.load.valid() ||
            plan.line_value(
                static_cast<unsigned>(sig_of_net_[c.load.index()]), t) != 0;
        if (load || !c.clock_gated) {
          edge_clock_events_[static_cast<std::size_t>(t)].push_back(cid);
        }
        if (load) edge_captures_[static_cast<std::size_t>(t)].push_back(cid);
      }
    }
  }
  if (mode_ == Mode::BitSliced) {
    // The sliced kernel walks the static phase-edge schedule (per-lane
    // dynamic load enables would make clock-event counts data-dependent);
    // every design synthesize() produces qualifies. Hand-built netlists
    // that drive a load pin from the datapath keep the scalar kernels.
    MCRTL_CHECK_MSG(static_edges_,
                    "BitSliced simulation requires controller-driven storage "
                    "load enables; use Mode::EventDriven for this netlist");
    init_planes();
  }
}

void Simulator::init_planes() {
  const rtl::Netlist& nl = design_->netlist;
  plane_offset_.reserve(nl.num_nets() + 1);
  plane_offset_.push_back(0);
  for (const auto& net : nl.nets()) {
    plane_offset_.push_back(plane_offset_.back() + net.width);
  }
  net_planes_.assign(plane_offset_.back(), 0);
}

void Simulator::mark_all_dirty() {
  if (dirty_.empty()) return;
  std::fill(dirty_.begin(), dirty_.end(), ~std::uint64_t{0});
  if (slot_comp_.size() % 64 != 0) {
    dirty_.back() = (std::uint64_t{1} << (slot_comp_.size() % 64)) - 1;
  }
  pending_ = slot_comp_.size();
  first_dirty_ = 0;
}

bool Simulator::one_computation_warmup() {
  if (warmup_checked_) return warmup_exact_;
  warmup_checked_ = true;
  // The time-sliced kernel walks the static phase-edge schedule.
  if (!static_edges_) return false;
  const rtl::Design& d = *design_;
  const rtl::Netlist& nl = d.netlist;
  const auto& comps = nl.components();
  const rtl::ControlPlan& plan = d.control;
  const int P = d.clocks.period();
  const int n = d.clocks.num_phases();
  // known[i]: net i provably carries the value the scalar run has at the
  // same point, whatever state the lane started from. Controller lines,
  // constants and input ports are known from the start (the controller is
  // periodic, the lane's inputs are the stream's); storage outputs and
  // isolation-gate outputs are not.
  std::vector<std::uint8_t> known(nl.num_nets(), 0);
  for (const auto& c : comps) {
    if (c.kind == CompKind::ControlSource || c.kind == CompKind::Constant ||
        c.kind == CompKind::InputPort) {
      known[c.output.index()] = 1;
    }
  }
  // Select values come straight off the ControlPlan at period step t; a
  // data-driven select makes the depth unbounded.
  bool data_select = false;
  auto select_value = [&](NetId net, int t) -> std::uint64_t {
    if (sig_of_net_[net.index()] >= 0) {
      return plan.line_value(static_cast<unsigned>(sig_of_net_[net.index()]),
                             t);
    }
    const rtl::Component& drv = comps[nl.net(net).driver.index()];
    if (drv.kind != CompKind::Constant) data_select = true;
    return from_signed(drv.const_value, drv.width);
  };
  auto settle_known = [&](int t) {
    for (CompId cid : comb_order_) {
      const rtl::Component& c = comps[cid.index()];
      const std::uint64_t code = c.select.valid() ? select_value(c.select, t)
                                                  : 0;
      bool k = false;
      if (c.kind == CompKind::Mux || c.kind == CompKind::Bus) {
        k = code < c.inputs.size() && known[c.inputs[code].index()];
      } else if (c.kind == CompKind::IsoGate) {
        k = code != 0 ? known[c.inputs[0].index()] : known[c.output.index()];
      } else {  // Alu
        k = code < c.funcs.size() && known[c.inputs[0].index()] &&
            (dfg::op_arity(c.funcs[code]) == 1 || known[c.inputs[1].index()]);
      }
      known[c.output.index()] = k;
    }
  };
  auto load_known = [&](CompId cid) {
    known[comps[cid.index()].output.index()] =
        known[comps[cid.index()].inputs[0].index()];
  };
  // The lane's preamble: reset-state controller, then the boundary edge.
  settle_known(P);
  for (CompId cid : storage_by_phase_[static_cast<std::size_t>(n)]) {
    const rtl::Component& c = comps[cid.index()];
    if (!c.load.valid() ||
        plan.line_value(static_cast<unsigned>(sig_of_net_[c.load.index()]),
                        P) != 0) {
      load_known(cid);
    }
  }
  settle_known(P);
  std::vector<std::uint8_t> staged;
  for (int t = 1; t <= P; ++t) {
    settle_known(t);
    // Captures commit simultaneously: stage every D mark first.
    const auto& caps = edge_captures_[static_cast<std::size_t>(t)];
    staged.clear();
    for (CompId cid : caps) {
      staged.push_back(known[comps[cid.index()].inputs[0].index()]);
    }
    for (std::size_t i = 0; i < caps.size(); ++i) {
      known[comps[caps[i].index()].output.index()] = staged[i];
    }
    settle_known(t);
  }
  warmup_exact_ = !data_select &&
                  std::all_of(known.begin(), known.end(),
                              [](std::uint8_t k) { return k != 0; });
  return warmup_exact_;
}

void Simulator::write_net(NetId net, std::uint64_t value, Activity& act,
                          bool count) {
  const std::uint64_t old = net_value_[net.index()];
  if (old == value) return;
  if (count) {
    const unsigned flips = hamming(old, value);
    act.net_toggles[net.index()] += flips;
    if (probe_) probe_->add_net(net.index(), flips);
  }
  net_value_[net.index()] = value;
  if (mode_ == Mode::EventDriven) mark_fanout_dirty(net);
}

// Hot path: direct component-array indexing (CompIds are created dense and
// validated at construction; the bounds-checked Netlist::comp() accessor is
// for cold callers).
std::uint64_t Simulator::eval_comp(const rtl::Component& c) const {
  if (c.kind == CompKind::Mux || c.kind == CompKind::Bus) {
    std::uint64_t sel = net_value_[c.select.index()];
    MCRTL_CHECK_MSG(sel < c.inputs.size(),
                    "mux/bus '" << c.name << "' select " << sel << " out of range");
    return net_value_[c.inputs[sel].index()];
  }
  if (c.kind == CompKind::IsoGate) {
    // Hold-mode operand isolation: transparent when enabled, otherwise
    // the downstream ALU keeps seeing the last operand (paper §1:
    // "holding the old input values as long as possible").
    return net_value_[c.select.index()] != 0 ? net_value_[c.inputs[0].index()]
                                             : net_value_[c.output.index()];
  }
  // Alu
  std::uint64_t code = 0;
  if (c.select.valid()) code = net_value_[c.select.index()];
  MCRTL_CHECK_MSG(code < c.funcs.size(),
                  "alu '" << c.name << "' func code " << code << " out of range");
  const std::uint64_t a = net_value_[c.inputs[0].index()];
  const std::uint64_t b = net_value_[c.inputs[1].index()];
  return dfg::eval_op(c.funcs[code], a, b, c.width);
}

void Simulator::settle(Activity& act, bool count) {
  ++kernel_stats_.settles;
  kernel_stats_.oblivious_evals += comb_order_.size();
  if (mode_ == Mode::EventDriven) {
    settle_event(act, count);
  } else {
    settle_oblivious(act, count);
  }
}

void Simulator::settle_oblivious(Activity& act, bool count) {
  const auto& comps = design_->netlist.components();
  kernel_stats_.evals += comb_order_.size();
  for (CompId cid : comb_order_) {
    const rtl::Component& c = comps[cid.index()];
    write_net(c.output, eval_comp(c), act, count);
  }
}

void Simulator::settle_event(Activity& act, bool count) {
  if (pending_ == 0) return;
  const auto& comps = design_->netlist.components();
  drain([&](CompId cid) {
    ++kernel_stats_.evals;
    const rtl::Component& c = comps[cid.index()];
    write_net(c.output, eval_comp(c), act, count);
  });
}

SimResult Simulator::run(const InputStream& stream,
                         const std::vector<dfg::ValueId>& input_order,
                         const std::vector<dfg::ValueId>& output_order) {
  obs::Span span("sim.run");
  fault::inject("sim.run");
  MCRTL_CHECK_MSG(mode_ != Mode::BitSliced,
                  "run() is scalar-only; a BitSliced simulator batches "
                  "streams through run_sliced()");
  // A computation budget truncates the loop, not the stream: the boundary
  // input-load of the last simulated computation still presents
  // computation `limit`'s inputs (exactly as an unbudgeted run would before
  // its deadline check), so the prefix Activity is bit-identical to the
  // first `limit` computations of a full run.
  const std::size_t limit =
      computation_budget_ > 0 ? std::min(computation_budget_, stream.size())
                              : stream.size();
  if (mode_ == Mode::EventDriven && !observer_ && limit > 0 &&
      limit >= g_time_sliced_min.load(std::memory_order_relaxed) &&
      one_computation_warmup()) {
    return run_time_sliced(stream, input_order, output_order, limit);
  }
  const rtl::Design& d = *design_;
  const rtl::Netlist& nl = d.netlist;
  const auto& comps = nl.components();
  const int P = d.clocks.period();
  const int T = d.schedule_steps;
  const int n = d.clocks.num_phases();

  SimResult result;
  Activity& act = result.activity;
  act.net_toggles.assign(nl.num_nets(), 0);
  act.storage_clock_events.assign(nl.num_components(), 0);
  act.storage_write_toggles.assign(nl.num_components(), 0);
  act.phase_pulses.assign(static_cast<std::size_t>(n) + 1, 0);
  if (heatmap_) heatmap_->resize(n, P);
  if (probe_) probe_->reset();  // one probe record per run, like the heatmap
  const std::uint64_t evals_before = kernel_stats_.evals;
  const std::uint64_t oblivious_before = kernel_stats_.oblivious_evals;

  // Resolve the port maps once per run: (net, width) per input and storage
  // component per output, in stream/sample order — the per-period loops then
  // avoid the map lookups.
  std::vector<std::pair<NetId, unsigned>> in_ports;
  in_ports.reserve(input_order.size());
  for (dfg::ValueId v : input_order) {
    const rtl::Component& c = comps[d.input_ports.at(v).index()];
    in_ports.emplace_back(c.output, c.width);
  }
  std::vector<CompId> out_storage;
  out_storage.reserve(output_order.size());
  for (dfg::ValueId v : output_order) {
    out_storage.push_back(d.output_storage.at(v));
  }

  auto apply_inputs = [&](std::size_t comp_index, bool count) {
    MCRTL_CHECK(stream[comp_index].size() == in_ports.size());
    for (std::size_t i = 0; i < in_ports.size(); ++i) {
      const auto& [net, w] = in_ports[i];
      write_net(net, truncate(stream[comp_index][i], w), act, count);
    }
  };

  // ---- preamble (uncounted reset, then the initial input-load edge) ------
  // Everything here passes count=false, so writing through `act` leaves it
  // untouched — no scratch Activity copy is needed.
  {
    // Before the first settle no net has ever been written, but components
    // can produce nonzero outputs from all-zero inputs (e.g. an equality
    // ALU); the event-driven kernel therefore starts from a full worklist,
    // exactly reproducing the oblivious kernel's unconditional first pass.
    if (mode_ == Mode::EventDriven) mark_all_dirty();
    for (const auto& [net, value] : control_reset_writes_) {
      write_net(net, value, act, false);
    }
    for (const auto& c : comps) {
      if (c.kind == CompKind::Constant) {
        write_net(c.output, from_signed(c.const_value, c.width), act, false);
      }
    }
    if (!stream.empty()) apply_inputs(0, false);
    settle(act, false);
    // Boundary edge (phase n): load the input registers for computation 0.
    for (CompId cid : storage_by_phase_[static_cast<std::size_t>(n)]) {
      const rtl::Component& c = comps[cid.index()];
      if (c.load.valid() && net_value_[c.load.index()] == 0) continue;
      storage_q_[cid.index()] = net_value_[c.inputs[0].index()];
      write_net(c.output, storage_q_[cid.index()], act, false);
    }
    settle(act, false);
  }

  // ---- main loop ----------------------------------------------------------
  result.outputs.reserve(limit);
  for (std::size_t comp = 0; comp < limit; ++comp) {
    // One clock read per master period — cheap against the period's settle
    // work, frequent enough that a stuck point is caught within one
    // computation.
    if (has_deadline_ && std::chrono::steady_clock::now() > deadline_) {
      throw TimeoutError("simulation exceeded its point deadline after " +
                         std::to_string(comp) + " of " +
                         std::to_string(stream.size()) + " computations");
    }
    for (int t = 1; t <= P; ++t) {
      // 1. controller drives step-t values. EventDriven replays the
      // tabulated deltas (only the lines that move); Oblivious re-derives
      // every line from the ControlPlan, as the original inner loop did.
      if (mode_ == Mode::EventDriven) {
        for (const auto& [net, value] :
             control_step_writes_[static_cast<std::size_t>(t)]) {
          write_net(net, value, act, true);
        }
      } else {
        for (const auto& [net, sig_index] : control_lines_) {
          write_net(net, d.control.line_value(sig_index, t), act, true);
        }
      }
      // 2. at the boundary step, the environment presents the next inputs.
      if (t == P && comp + 1 < stream.size()) apply_inputs(comp + 1, true);
      // 3. combinational wave from control/input changes.
      settle(act, true);
      // 4. the phase edge ending step t.
      const int phase = phase_by_step_[static_cast<std::size_t>(t)];
      ++act.phase_pulses[static_cast<std::size_t>(phase)];
      if (probe_) probe_->add_phase_pulse(phase);
      // Capture simultaneously: read all D inputs before committing.
      captures_.clear();
      if (static_edges_) {
        const auto& clocked = edge_clock_events_[static_cast<std::size_t>(t)];
        for (CompId cid : clocked) {
          ++act.storage_clock_events[cid.index()];
          if (probe_) probe_->add_storage_clock(cid.index());
        }
        if (heatmap_) {
          heatmap_->clock_events[heatmap_->at(phase, t)] += clocked.size();
        }
        for (CompId cid : edge_captures_[static_cast<std::size_t>(t)]) {
          captures_.emplace_back(
              cid, net_value_[comps[cid.index()].inputs[0].index()]);
        }
      } else {
        for (CompId cid : storage_by_phase_[static_cast<std::size_t>(phase)]) {
          const rtl::Component& c = comps[cid.index()];
          const bool load = !c.load.valid() || net_value_[c.load.index()] != 0;
          if (load || !c.clock_gated) {
            ++act.storage_clock_events[cid.index()];
            if (probe_) probe_->add_storage_clock(cid.index());
            if (heatmap_) ++heatmap_->clock_events[heatmap_->at(phase, t)];
          }
          if (load) captures_.emplace_back(cid, net_value_[c.inputs[0].index()]);
        }
      }
      for (const auto& [cid, dval] : captures_) {
        const rtl::Component& c = comps[cid.index()];
        const std::uint64_t old = storage_q_[cid.index()];
        if (old != dval) {
          const auto flipped = hamming(old, dval);
          act.storage_write_toggles[cid.index()] += flipped;
          if (heatmap_) heatmap_->write_toggles[heatmap_->at(phase, t)] += flipped;
          storage_q_[cid.index()] = dval;
          write_net(c.output, dval, act, true);
        }
      }
      // 5. combinational wave from the new storage outputs.
      settle(act, true);
      ++act.steps;
      if (probe_) probe_->end_step(t);
      if (observer_) observer_(act.steps, net_value_);
      // Sample primary outputs at the end of schedule step T.
      if (t == T) {
        OutputSample sample;
        sample.reserve(out_storage.size());
        for (CompId cid : out_storage) {
          sample.push_back(storage_q_[cid.index()]);
        }
        result.outputs.push_back(std::move(sample));
      }
    }
    ++act.computations;
  }
  if (obs::enabled()) {
    obs::count("sim.runs");
    obs::count("sim.steps", act.steps);
    obs::count("sim.net_toggles",
               std::accumulate(act.net_toggles.begin(), act.net_toggles.end(),
                               std::uint64_t{0}));
    if (mode_ == Mode::EventDriven) {
      const std::uint64_t popped = kernel_stats_.evals - evals_before;
      const std::uint64_t oblivious =
          kernel_stats_.oblivious_evals - oblivious_before;
      obs::count("sim.kernel.events_popped", popped);
      obs::count("sim.kernel.evals_skipped", oblivious - popped);
    }
  }
  return result;
}

}  // namespace mcrtl::sim
