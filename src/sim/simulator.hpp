// Phase-accurate simulator for synthesized designs.
//
// One control step = one master clock cycle. Within a step:
//   1. the controller drives new control-line values (latched lines only
//      change at their partition boundary — ControlPlan::line_value);
//   2. at the period boundary, primary inputs take the next computation's
//      values;
//   3. combinational logic (muxes, ALUs) settles — every output word change
//      is a counted transition wave;
//   4. the clock edge ending the step fires for exactly one phase; storage
//      elements of that phase with an active load enable capture their D
//      input (all captures commit simultaneously);
//   5. combinational logic settles again on the new storage outputs.
//
// Primary outputs are sampled at the end of schedule step T of each period.
// All transitions — datapath, control lines, storage outputs, clock pins —
// are accumulated into an Activity record for the power model.
//
// Three settle kernels implement step 3/5 with bit-identical results:
//
//  * EventDriven (default) — a levelized event-driven worklist. The
//    constructor precomputes a net -> combinational-fanout index and a
//    topological level per combinational component (rtl::Netlist::
//    comb_fanout / comb_levels); write_net() enqueues the dirty fanout of
//    every real value change into a level-bucketed worklist, and settle()
//    drains only the affected cone in level order. In an n-clock design
//    only ~1/n of the datapath sees new values in any master cycle (the
//    paper's one-active-DPM property), so most components are never
//    touched.
//  * Oblivious — the reference kernel: re-evaluate every combinational
//    component in topological order on every settle, re-derive every
//    control-line value from the ControlPlan every step, and re-derive the
//    phase-edge capture set from the live load nets at every edge — i.e.
//    the full pre-event-kernel inner loop. Retained as the
//    differential-testing baseline for the event-driven kernel and its
//    precomputed control/edge schedules (and as the cost model of the
//    `sim.kernel.evals_skipped` counter, which scalar runs emit; a
//    time-sliced run emits `sim.time_sliced.runs` / `.lane_steps`).
//  * BitSliced (run_sliced()) — the Monte-Carlo batch kernel: up to 64
//    independent stimulus streams are packed one-per-bit-lane into
//    bit-slice planes (util/bits.hpp layout: one uint64_t plane per net
//    bit), components are evaluated with SWAR logic plus ripple-carry
//    arithmetic on the planes, and per-stream toggle counts accumulate in
//    carry-save vertical counters — so one settle pass over the levelized
//    worklist advances all streams at once. It reuses the event-driven
//    kernel's levelized fanout index, tabulated controller deltas and
//    static phase-edge schedules; designs whose storage load enables are
//    not controller-driven (never produced by synthesize()) are rejected
//    at construction. Per stream, its results are bit-identical to an
//    independent EventDriven run of that stream's stimulus.
//
// Both levelized kernels drain their worklist in one canonical order —
// ascending level, then ascending CompId — so every counted transition of
// a step reaches an attached PowerProbe in the same order whichever kernel
// produced it, and per-step energies agree bit for bit.
//
// Time-sliced dispatch. An EventDriven run() of one long stream does not
// step through it computation by computation: it cuts the N computations
// (or the set_computation_budget prefix) into L <= 64 contiguous segments,
// one per bit lane, and advances all of them in one pass of the bit-sliced
// kernel. Lane k > 0 first replays the computations just before its
// segment as uncounted warm-up; a per-lane count-enable plane, ANDed into
// every toggle diff, keeps warm-up and padding rows out of the counters.
// The lanes' counters sum (popcount per plane) into the one Activity a
// scalar run would return, outputs and probe rows are placed at their
// global computation/step, and the last lane's final state becomes the
// simulator's state, so a later run() continues exactly as after a scalar
// run.
//
// Why warm-up is exact: a run's state at the start of a computation is
// every net value (storage outputs included). The controller is periodic
// and the inputs are the stream's, so that state is the scalar run's state
// once every storage element and hold-mode isolation gate has been
// rewritten from values that are themselves determined — at which point
// whatever the lane started from no longer matters. one_computation_warmup()
// checks that one master period does this by propagating "determined"
// marks through the design (true for every design synthesize() builds:
// each computation reloads every register it uses). A design where the
// marks do not cover every net after one period — a loop-carried value, a
// never-loaded register, a data-driven select — always runs scalar.
//
// run() takes the time-sliced path only when it is exact and pays off:
// the simulator is EventDriven, no StepObserver is attached (observers see
// per-step net vectors of one scalar timeline), one computation of warm-up
// suffices, and the run covers at least kTimeSlicedMinComputations
// computations (below that, the lane set-up costs more than the scalar
// steps it saves). The warm-up check runs lazily, on the first run that
// passes the other checks.
//
// Because every combinational component is a pure function of its input
// nets and write_net() only counts transitions on real value changes, the
// kernels produce identical Activity, outputs and PhaseHeatmap records
// — asserted across benchmarks, styles and fuzz graphs by
// tests/test_sim_kernel.cpp, (per stream) tests/test_sim_sliced.cpp and
// (time-sliced against scalar) tests/test_sim_time_sliced.cpp.
#pragma once

#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "rtl/design.hpp"
#include "sim/activity.hpp"
#include "sim/power_probe.hpp"

namespace mcrtl::sim {

/// One computation's sampled primary outputs, in Graph::outputs() order.
using OutputSample = std::vector<std::uint64_t>;

/// Input stream: one vector of words per computation, in Graph::inputs()
/// order.
using InputStream = std::vector<std::vector<std::uint64_t>>;

/// Result of simulating a stream.
struct SimResult {
  std::vector<OutputSample> outputs;  ///< one per computation
  Activity activity;
};

class Simulator {
 public:
  /// Settle-kernel selection. EventDriven is the production single-stream
  /// kernel; Oblivious is the retained reference path for differential
  /// testing; BitSliced batches up to 64 streams per run_sliced() call.
  enum class Mode { EventDriven, Oblivious, BitSliced };

  /// Maximum number of stimulus streams one run_sliced() call can batch —
  /// one lane per bit of the plane words.
  static constexpr std::size_t kMaxStreams = 64;

  /// Shortest run (in computations) that run() moves onto the time-sliced
  /// path; shorter runs stay scalar. Set from the crossover curve in
  /// BENCH_sim.json ("time_sliced.crossover").
  static constexpr std::size_t kTimeSlicedMinComputations = 32;

  explicit Simulator(const rtl::Design& design, Mode mode = Mode::EventDriven);

  Mode mode() const { return mode_; }

  /// Simulate `stream.size()` computations. `output_order` lists the output
  /// values in the order samples should be emitted. Not available in
  /// BitSliced mode (use run_sliced). Long EventDriven runs take the
  /// time-sliced path (see the header comment); the result is the same.
  SimResult run(const InputStream& stream,
                const std::vector<dfg::ValueId>& input_order,
                const std::vector<dfg::ValueId>& output_order);

  /// BitSliced mode only: simulate `streams.size()` (1..64) independent
  /// stimulus streams of equal length in one bit-sliced pass. Element s of
  /// the result is bit-identical to what an EventDriven run of streams[s]
  /// on a fresh Simulator would return — outputs and the full Activity
  /// record. Per-stream PhaseHeatmaps are collected into the vector
  /// attached with set_stream_heatmaps() (resized to streams.size()).
  std::vector<SimResult> run_sliced(
      const std::vector<InputStream>& streams,
      const std::vector<dfg::ValueId>& input_order,
      const std::vector<dfg::ValueId>& output_order);

  /// Settle-kernel work accounting, accumulated over every run() of this
  /// Simulator. `evals` is the number of combinational evaluations the
  /// active kernel actually performed; `oblivious_evals` is what the
  /// Oblivious kernel would have performed over the same settle() calls
  /// (settles x combinational component count) — the two coincide in
  /// Oblivious mode, and their difference is the event-driven saving. A
  /// time-sliced run counts its sliced settles and evaluations, each of
  /// which covers every lane at once: the units differ from a scalar run's
  /// (a 4000-computation run reports ~64x fewer settles), and evals per
  /// settle grows with the union of the lanes' dirty sets.
  struct KernelStats {
    std::uint64_t settles = 0;
    std::uint64_t evals = 0;
    std::uint64_t oblivious_evals = 0;
  };
  const KernelStats& kernel_stats() const { return kernel_stats_; }

  /// Optional per-step observer: called after each step settles with
  /// (global_step, net values). Used by the VCD tracer. An attached
  /// observer keeps run() on the scalar path.
  using StepObserver =
      std::function<void(std::uint64_t step, const std::vector<std::uint64_t>&)>;
  void set_observer(StepObserver obs) { observer_ = std::move(obs); }

  /// Optional per-partition activity telemetry: run() fills `hm` (resized
  /// to the design's phase count x period) with storage write toggles and
  /// delivered clock edges per (phase, period step). Pass nullptr to
  /// detach; no collection cost when detached.
  void set_heatmap(PhaseHeatmap* hm) { heatmap_ = hm; }

  /// Per-stream heatmap telemetry for run_sliced(): the vector is resized
  /// to the stream count and element s receives the heatmap an EventDriven
  /// run of stream s would have produced. Pass nullptr to detach.
  void set_stream_heatmaps(std::vector<PhaseHeatmap>* hms) {
    stream_heatmaps_ = hms;
  }

  /// Optional per-domain energy telemetry (the power-attribution waveform):
  /// every counted transition is folded into `probe` with the weights of
  /// its EnergyModel — per step and per clock domain. In BitSliced mode the
  /// probe receives the aggregate across all lanes. Pass nullptr to detach;
  /// no collection cost when detached, and attaching never changes results.
  void set_power_probe(PowerProbe* probe) { probe_ = probe; }

  /// Cooperative deadline: run() checks the clock once per computation
  /// (i.e. once per master period; once per row of lane computations on
  /// the time-sliced path) and throws mcrtl::TimeoutError when the
  /// deadline has passed — the hook behind the explorer's --point-timeout,
  /// turning a pathologically slow configuration into an ordinary
  /// retryable/quarantinable failure instead of a hung sweep.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }

  /// True when one computation determines a run's state whatever state it
  /// started from — the warm-up each time-sliced lane replays before its
  /// segment. A design that needs more (or never converges) always runs
  /// scalar. Derived on first use and cached.
  bool one_computation_warmup();

  /// Cooperative computation budget (0 = unlimited, the default): run()
  /// stops cleanly after simulating `n` computations of the stream and
  /// returns the partial result — `n` output samples and the Activity of
  /// exactly those master periods. The check shares the per-computation
  /// stop point with set_deadline, but unlike the deadline it is not a
  /// failure: it is the search layer's prefix-run primitive (evaluate a
  /// short, deterministic prefix of the shared stimulus to bound a
  /// configuration's power before committing to a full-depth run). The
  /// budget applies per run() call and the simulated prefix is
  /// bit-identical to the first `n` computations of an unbudgeted run.
  void set_computation_budget(std::size_t n) { computation_budget_ = n; }

 private:
  friend class SlicedKernel;  // sim/sliced.cpp: the BitSliced engine

  /// The time-sliced path of run(): `limit` computations of `stream` cut
  /// into lane segments and simulated in one bit-sliced pass
  /// (sim/sliced.cpp).
  SimResult run_time_sliced(const InputStream& stream,
                            const std::vector<dfg::ValueId>& input_order,
                            const std::vector<dfg::ValueId>& output_order,
                            std::size_t limit);
  /// Size the bit-slice plane store (BitSliced mode, and the time-sliced
  /// path of an EventDriven simulator on first use).
  void init_planes();

  void settle(Activity& act, bool count);
  void settle_oblivious(Activity& act, bool count);
  void settle_event(Activity& act, bool count);
  std::uint64_t eval_comp(const rtl::Component& c) const;
  void write_net(rtl::NetId net, std::uint64_t value, Activity& act, bool count);
  /// Enqueue every combinational reader of `net` that is not already
  /// pending (levelized kernels only).
  void mark_fanout_dirty(rtl::NetId net) {
    for (std::uint32_t k = fanout_offset_[net.index()];
         k < fanout_offset_[net.index() + 1]; ++k) {
      const std::uint32_t slot = fanout_[k];
      const std::uint64_t bit = std::uint64_t{1} << (slot & 63);
      std::uint64_t& word = dirty_[slot >> 6];
      if (word & bit) continue;
      word |= bit;
      ++pending_;
      if ((slot >> 6) < first_dirty_) first_dirty_ = slot >> 6;
    }
  }
  /// Enqueue every combinational component (the full re-evaluation the
  /// preamble of each run() needs: before the first settle no net has ever
  /// been written, yet components may produce nonzero outputs from
  /// all-zero inputs).
  void mark_all_dirty();
  /// Pop every pending component in slot order — ascending level, then
  /// ascending CompId — and hand it to `eval`. Evaluating a level-L
  /// component can only enqueue strictly deeper levels, i.e. higher slots,
  /// so one forward sweep over the bitmap drains the whole cone.
  template <class Eval>
  void drain(Eval&& eval) {
    for (std::size_t w = first_dirty_; pending_ != 0; ++w) {
      while (const std::uint64_t bits = dirty_[w]) {
        dirty_[w] = bits & (bits - 1);
        --pending_;
        eval(slot_comp_[w * 64 + static_cast<unsigned>(std::countr_zero(bits))]);
      }
    }
    first_dirty_ = dirty_.size();
  }

  const rtl::Design* design_;
  Mode mode_;
  std::vector<rtl::CompId> comb_order_;
  std::vector<std::uint64_t> net_value_;
  std::vector<std::uint64_t> storage_q_;  // by CompId (storage comps only)

  // Levelized worklist state (empty in Oblivious mode). Combinational
  // components are numbered by "slot": level-major, CompId-ascending within
  // a level. The fanout index is flattened CSR-style: the slots reading net
  // i are fanout_[fanout_offset_[i] .. fanout_offset_[i+1]). The worklist
  // is a bitmap over slots, so it drains in slot order for free.
  std::vector<std::uint32_t> fanout_offset_;
  std::vector<std::uint32_t> fanout_;       // slots
  std::vector<rtl::CompId> slot_comp_;      // slot -> component
  std::vector<std::uint64_t> dirty_;        // worklist bitmap, by slot
  std::size_t pending_ = 0;                 // set bits in dirty_
  std::size_t first_dirty_ = 0;             // no set bit below this word

  // Storage components grouped by clock phase 1..n (index 0 unused), in
  // CompId order — replaces the all-components scan at every phase edge.
  std::vector<std::vector<rtl::CompId>> storage_by_phase_;
  // Capture scratch, hoisted out of the step loop.
  std::vector<std::pair<rtl::CompId, std::uint64_t>> captures_;

  // Controller lines as (output net, ControlPlan signal index), the
  // Oblivious kernel's per-step delivery list (it re-derives every line
  // value every step, as the pre-event-kernel simulator did).
  std::vector<std::pair<rtl::NetId, unsigned>> control_lines_;
  // EventDriven controller delivery, precomputed from ControlPlan (line
  // values are periodic in the master period). control_step_writes_[t]
  // (t in 1..P) holds (net, value) for exactly the signals whose line value
  // changes between step t-1 and t (wrapping at the period boundary), so
  // the per-step controller loop touches only moving lines; writing an
  // unchanged line was always a no-op, so toggle counts are unaffected.
  // control_reset_writes_ is the full boundary-state list (every signal at
  // step P) the preamble establishes before the first computation.
  std::vector<std::vector<std::pair<rtl::NetId, std::uint64_t>>>
      control_step_writes_;
  std::vector<std::pair<rtl::NetId, std::uint64_t>> control_reset_writes_;
  // phase_of_step(t) for t in 1..P.
  std::vector<int> phase_by_step_;
  // ControlPlan signal index of each controller-driven net, -1 for every
  // other net (levelized modes only).
  std::vector<int> sig_of_net_;

  // Static phase-edge schedule (EventDriven only). Load enables are
  // controller lines, so when every storage load net is ControlSource-driven
  // (true for all built designs) the set of storage elements that receives a
  // clock event / captures at period step t is a pure function of t:
  // edge_clock_events_[t] and edge_captures_[t] list them in CompId order,
  // and the per-step edge handling walks exactly those instead of re-deriving
  // the sets from load nets. Falls back to the dynamic per-phase scan
  // (static_edges_ = false) if a hand-built netlist drives a load pin from
  // the datapath. The Oblivious kernel always uses the dynamic scan — it is
  // the semantic reference the schedule is differentially tested against.
  bool static_edges_ = false;
  std::vector<std::vector<rtl::CompId>> edge_clock_events_;
  std::vector<std::vector<rtl::CompId>> edge_captures_;

  KernelStats kernel_stats_;
  StepObserver observer_;
  PowerProbe* probe_ = nullptr;
  PhaseHeatmap* heatmap_ = nullptr;
  std::vector<PhaseHeatmap>* stream_heatmaps_ = nullptr;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_;
  std::size_t computation_budget_ = 0;  // 0 = unlimited
  bool warmup_checked_ = false;         // one_computation_warmup() cached
  bool warmup_exact_ = false;

  // BitSliced kernel state (empty in Oblivious mode, and in EventDriven
  // mode until the first time-sliced run). Plane values of net i live in
  // net_planes_[plane_offset_[i] .. plane_offset_[i+1]); they persist
  // across run_sliced() calls exactly as net_value_ persists across run()
  // calls. The time-sliced path loads them from net_value_ on entry and
  // writes the last lane back on exit.
  std::vector<std::uint32_t> plane_offset_;
  std::vector<std::uint64_t> net_planes_;
};

namespace testing {
/// Test and benchmark seam, not a tuning knob: while alive, run() uses
/// `min_computations` instead of kTimeSlicedMinComputations as its
/// time-sliced threshold, process-wide — 1 forces every eligible run onto
/// the time-sliced path, SIZE_MAX keeps every run scalar. Scopes nest:
/// each restores the threshold it replaced.
class ScopedTimeSlicedThreshold {
 public:
  explicit ScopedTimeSlicedThreshold(std::size_t min_computations);
  ~ScopedTimeSlicedThreshold();
  ScopedTimeSlicedThreshold(const ScopedTimeSlicedThreshold&) = delete;
  ScopedTimeSlicedThreshold& operator=(const ScopedTimeSlicedThreshold&) =
      delete;

 private:
  std::size_t saved_;
};
}  // namespace testing

}  // namespace mcrtl::sim
