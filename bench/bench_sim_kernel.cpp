// Settle-kernel benchmark: oblivious full-sweep vs. event-driven worklist,
// over every paper benchmark x clock count. Reports steps/sec and
// settle-evals/step per kernel and enforces two invariants that double as
// the CI perf-smoke guard (cheap and runner-noise-free, unlike wall-clock
// thresholds):
//
//  1. bit-identical results — outputs and the full Activity record of the
//     two kernels must agree exactly;
//  2. monotonic work — the event-driven kernel must never evaluate more
//     combinational components than the oblivious sweep does.
//
// A second leg benchmarks the bit-sliced Monte-Carlo batch kernel: one
// 64-stream run_sliced() pass against 64 serial event-driven runs of the
// same streams, with two more guards:
//
//  3. per-stream identity — every sliced result must be bit-identical to
//     the corresponding serial run;
//  4. batch throughput — aggregate streams x steps/s of the sliced kernel
//     must be at least 8x the serial baseline, measured on the median rep.
//
// Both legs measure the scalar kernels, so they run under
// sim::testing::ScopedTimeSlicedThreshold(SIZE_MAX). A third leg times
// the time-sliced path of run() against the scalar path on one stream,
// each with a PowerProbe attached (as explore() runs it):
//
//  5. time-sliced identity — outputs, Activity and crest bit-identical to
//     the scalar run on every suite config;
//  6. time-sliced throughput — aggregate scalar / time-sliced sim.run time
//     (median reps) over the suite configs at 4000 computations >= 4x;
//
// and records the crossover curve — the speedup at 16..4000 computations
// on the suite configs and on 128..1024-node random DFGs — that sets
// Simulator::kTimeSlicedMinComputations. BENCH_sim.json carries a "host"
// block (cores, CPU, SIMD flags, compiler, build type).
//
// Timing is reported as percentiles over the reps (pct50/pct90/pct99 +
// stddev, see util/stats.hpp) rather than best-of-N: the median is what
// the speedup floor checks, the tail and spread make runner noise visible
// in BENCH_sim.json instead of silently erased.
//
// Exit code is nonzero if any guard fails. Writes BENCH_sim.json (cwd).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/synthesizer.hpp"
#include "dfg/random_graph.hpp"
#include "host_info.hpp"
#include "power/attribution.hpp"
#include "power/estimator.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "suite/benchmarks.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace mcrtl;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct KernelRun {
  RunStats timing;  // wall-clock percentiles over the reps
  std::uint64_t steps = 0;
  std::uint64_t evals = 0;
  double steps_per_sec() const { return steps / timing.pct50; }
  double evals_per_step() const {
    return static_cast<double>(evals) / static_cast<double>(steps);
  }
};

void emit_timing(std::ofstream& js, const RunStats& s) {
  js << "\"pct50\": " << s.pct50 << ", \"pct90\": " << s.pct90
     << ", \"pct99\": " << s.pct99 << ", \"stddev\": " << s.stddev
     << ", \"reps\": " << s.n;
}

struct ConfigRow {
  std::string bench;
  int num_clocks = 0;
  std::size_t comb_components = 0;
  KernelRun oblivious, event;
};

bool identical(const sim::SimResult& a, const sim::SimResult& b) {
  return a.outputs == b.outputs &&
         a.activity.net_toggles == b.activity.net_toggles &&
         a.activity.storage_clock_events == b.activity.storage_clock_events &&
         a.activity.storage_write_toggles == b.activity.storage_write_toggles &&
         a.activity.phase_pulses == b.activity.phase_pulses &&
         a.activity.steps == b.activity.steps;
}

struct SlicedRow {
  std::string bench;
  int num_clocks = 0;
  RunStats sliced;               // one 64-stream bit-sliced pass per rep
  RunStats serial;               // 64 one-at-a-time event-driven runs per rep
  std::uint64_t lane_steps = 0;  // streams x steps
  double sliced_throughput() const { return lane_steps / sliced.pct50; }
  double serial_throughput() const { return lane_steps / serial.pct50; }
  double speedup() const { return serial.pct50 / sliced.pct50; }
};

struct TimeSlicedRow {
  std::string bench;
  int num_clocks = 0;
  RunStats scalar, sliced;  // seconds per run() call
  double speedup() const { return scalar.pct50 / sliced.pct50; }
};

/// Per-call wall time of run() over `n` computations of `stream`, each call
/// on a fresh simulator with a power probe attached, under time-sliced
/// threshold `threshold`. Calls are batched to >= 256 computations per
/// timed sample so short runs stay well above timer resolution; only run()
/// is timed. The last call's result and crest land in *last / *crest.
RunStats time_runs(const rtl::Design& design, const dfg::Graph& graph,
                   const sim::InputStream& stream, std::size_t n,
                   std::size_t threshold, int reps, sim::SimResult* last,
                   double* crest) {
  const power::Attribution attribution(design, power::TechLibrary::cmos08(),
                                       power::PowerParams{}.vdd);
  const std::size_t batch = std::max<std::size_t>(1, 256 / n);
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<std::unique_ptr<sim::Simulator>> sims;
    std::vector<std::unique_ptr<sim::PowerProbe>> probes;
    for (std::size_t b = 0; b < batch; ++b) {
      sims.push_back(std::make_unique<sim::Simulator>(design));
      probes.push_back(
          std::make_unique<sim::PowerProbe>(attribution.energy_model()));
      sims.back()->set_power_probe(probes.back().get());
      sims.back()->set_computation_budget(n);
    }
    const sim::testing::ScopedTimeSlicedThreshold seam(threshold);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t b = 0; b < batch; ++b) {
      *last = sims[b]->run(stream, graph.inputs(), graph.outputs());
    }
    samples.push_back(seconds_since(t0) / static_cast<double>(batch));
    *crest = probes.back()->crest();
  }
  return RunStats::from_samples(std::move(samples));
}

constexpr std::size_t kScalarOnly = std::numeric_limits<std::size_t>::max();
constexpr std::size_t kSlicedAlways = 1;

}  // namespace

int main() {
  constexpr std::size_t kComputations = 3000;
  constexpr int kReps = 5;  // enough samples for a meaningful median + tail
  std::vector<ConfigRow> rows;
  bool ok = true;

  // The first two legs measure the scalar kernels themselves; time_runs()
  // scopes its own threshold.
  const sim::testing::ScopedTimeSlicedThreshold scalar_kernels(kScalarOnly);
  std::printf("=== settle kernel: oblivious sweep vs event-driven worklist "
              "(%zu computations/run, median of %d) ===\n\n",
              kComputations, kReps);
  for (const char* name : {"facet", "hal", "biquad", "bandpass"}) {
    const auto b = suite::by_name(name, 4);
    for (int n = 1; n <= 4; ++n) {
      core::SynthesisOptions opts;
      opts.style = core::DesignStyle::MultiClock;
      opts.num_clocks = n;
      const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
      Rng rng(2024);
      const auto stream = sim::uniform_stream(rng, b.graph->inputs().size(),
                                              kComputations, 4);
      ConfigRow row;
      row.bench = name;
      row.num_clocks = n;
      row.comb_components = syn.design->netlist.comb_order().size();

      // Fresh simulators per rep (kernel_stats accumulate); every rep's
      // wall time feeds the percentile stats over the identical stream.
      sim::SimResult rob, rev;
      std::vector<double> ob_samples, ev_samples;
      for (int rep = 0; rep < kReps; ++rep) {
        sim::Simulator ob(*syn.design, sim::Simulator::Mode::Oblivious);
        auto t0 = std::chrono::steady_clock::now();
        rob = ob.run(stream, b.graph->inputs(), b.graph->outputs());
        ob_samples.push_back(seconds_since(t0));
        row.oblivious.steps = rob.activity.steps;
        row.oblivious.evals = ob.kernel_stats().evals;

        sim::Simulator ev(*syn.design);
        t0 = std::chrono::steady_clock::now();
        rev = ev.run(stream, b.graph->inputs(), b.graph->outputs());
        ev_samples.push_back(seconds_since(t0));
        row.event.steps = rev.activity.steps;
        row.event.evals = ev.kernel_stats().evals;
      }
      row.oblivious.timing = RunStats::from_samples(std::move(ob_samples));
      row.event.timing = RunStats::from_samples(std::move(ev_samples));

      if (!identical(rob, rev)) {
        std::fprintf(stderr,
                     "FATAL: %s n=%d event-driven kernel differs from the "
                     "oblivious reference\n",
                     name, n);
        ok = false;
      }
      if (row.event.evals > row.oblivious.evals) {
        std::fprintf(stderr,
                     "FATAL: %s n=%d event-driven kernel evaluated more "
                     "components than the oblivious sweep (%llu > %llu)\n",
                     name, n,
                     static_cast<unsigned long long>(row.event.evals),
                     static_cast<unsigned long long>(row.oblivious.evals));
        ok = false;
      }
      rows.push_back(row);
    }
  }

  // --- bit-sliced batch leg: 64 streams per pass vs 64 serial runs -------
  constexpr std::size_t kStreams = sim::Simulator::kMaxStreams;
  // Long enough that one sliced pass (~60ms) dwarfs a scheduler quantum:
  // with short passes a single preemption lands entirely on the sliced
  // reading and sinks the ratio, best-of-reps or not.
  constexpr std::size_t kSlicedComputations = 3000;
  constexpr int kSerialReps = 3;  // a serial pass is ~25x longer; 3 give a
                                  // true median without doubling wall time
  std::vector<SlicedRow> srows;
  double total_sliced_s = 0, total_serial_s = 0;

  std::printf("\n=== bit-sliced batch kernel: %zu streams/pass vs %zu serial "
              "event-driven runs (%zu computations/stream) ===\n\n",
              kStreams, kStreams, kSlicedComputations);
  for (const char* name : {"facet", "hal", "biquad", "bandpass"}) {
    const auto b = suite::by_name(name, 4);
    for (int n = 1; n <= 4; ++n) {
      core::SynthesisOptions opts;
      opts.style = core::DesignStyle::MultiClock;
      opts.num_clocks = n;
      const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
      const auto bundle = sim::uniform_streams(
          2024, kStreams, b.graph->inputs().size(), kSlicedComputations, 4);

      SlicedRow row;
      row.bench = name;
      row.num_clocks = n;

      // Percentiles over reps on both legs; the speedup ratio uses the
      // medians, so a single preempted rep lands in the tail instead of
      // skewing the headline. Each rep gets a fresh kernel — plane state
      // persists across run_sliced() calls, so a reused Simulator would
      // start warm.
      std::vector<sim::SimResult> sliced;
      std::vector<double> sl_samples;
      for (int rep = 0; rep < kReps; ++rep) {
        sim::Simulator sl(*syn.design, sim::Simulator::Mode::BitSliced);
        auto t0 = std::chrono::steady_clock::now();
        auto res = sl.run_sliced(bundle, b.graph->inputs(), b.graph->outputs());
        sl_samples.push_back(seconds_since(t0));
        if (rep == 0) sliced = std::move(res);
      }
      row.sliced = RunStats::from_samples(std::move(sl_samples));

      std::vector<sim::SimResult> serial;
      std::vector<double> se_samples;
      for (int rep = 0; rep < kSerialReps; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        std::vector<sim::SimResult> res;
        res.reserve(kStreams);
        for (std::size_t s = 0; s < kStreams; ++s) {
          sim::Simulator ev(*syn.design);
          res.push_back(
              ev.run(bundle[s], b.graph->inputs(), b.graph->outputs()));
        }
        se_samples.push_back(seconds_since(t0));
        if (rep == 0) serial = std::move(res);
      }
      row.serial = RunStats::from_samples(std::move(se_samples));

      for (std::size_t s = 0; s < kStreams; ++s) {
        row.lane_steps += sliced[s].activity.steps;
        if (!identical(sliced[s], serial[s])) {
          std::fprintf(stderr,
                       "FATAL: %s n=%d stream %zu: bit-sliced kernel differs "
                       "from the serial event-driven reference\n",
                       name, n, s);
          ok = false;
        }
      }
      total_sliced_s += row.sliced.pct50;
      total_serial_s += row.serial.pct50;
      srows.push_back(row);
    }
  }

  const double batch_speedup = total_serial_s / total_sliced_s;
  if (batch_speedup < 8.0) {
    std::fprintf(stderr,
                 "FATAL: bit-sliced batch speedup %.2fx is below the 8x "
                 "floor (serial pct50 %.3fs / sliced pct50 %.3fs)\n",
                 batch_speedup, total_serial_s, total_sliced_s);
    ok = false;
  }

  // --- time-sliced leg: one stream, segments in lanes vs scalar run() ----
  constexpr std::size_t kTsComputations = 4000;
  constexpr double kTsFloor = 4.0;
  std::printf("\n=== time-sliced run(): one %zu-computation stream in lane "
              "segments vs the scalar run, probe attached ===\n\n",
              kTsComputations);
  struct TsDesign {
    std::string family;
    suite::Benchmark bench;  // graph/schedule owner (random: name only)
    std::unique_ptr<dfg::Graph> graph;
    std::unique_ptr<dfg::Schedule> sched;
    core::Synthesized syn;
    int num_clocks = 0;
  };
  std::vector<TsDesign> designs;
  for (const char* name : {"facet", "hal", "biquad", "bandpass"}) {
    for (int n = 1; n <= 4; ++n) {
      TsDesign d;
      d.family = "suite";
      d.bench = suite::by_name(name, 4);
      core::SynthesisOptions opts;
      opts.style = core::DesignStyle::MultiClock;
      opts.num_clocks = n;
      d.syn = core::synthesize(*d.bench.graph, *d.bench.schedule, opts);
      d.num_clocks = n;
      designs.push_back(std::move(d));
    }
  }
  {
    // explore_large-style designs: 8-input, 8-bit random DFGs, list
    // scheduled with 4 units per type, at 2 clocks.
    Rng grng(1024);
    for (const unsigned nodes : {128u, 256u, 512u, 1024u}) {
      TsDesign d;
      d.family = "random";
      d.bench.name = "rand" + std::to_string(nodes);
      dfg::RandomGraphConfig rc;
      rc.num_inputs = 8;
      rc.num_nodes = nodes;
      rc.width = 8;
      d.graph = std::make_unique<dfg::Graph>(dfg::random_graph(grng, rc));
      dfg::ResourceLimits limits;
      limits.default_limit = 4;
      d.sched = std::make_unique<dfg::Schedule>(
          dfg::schedule_list(*d.graph, limits));
      core::SynthesisOptions opts;
      opts.style = core::DesignStyle::MultiClock;
      opts.num_clocks = 2;
      d.syn = core::synthesize(*d.graph, *d.sched, opts);
      d.num_clocks = 2;
      designs.push_back(std::move(d));
    }
  }
  auto graph_of = [](const TsDesign& d) -> const dfg::Graph& {
    return d.graph ? *d.graph : *d.bench.graph;
  };
  auto stream_of = [&](const TsDesign& d) {
    Rng rng(2024);
    return sim::uniform_stream(rng, graph_of(d).inputs().size(),
                               kTsComputations, graph_of(d).width());
  };

  std::vector<TimeSlicedRow> tsrows;
  double ts_scalar_s = 0, ts_sliced_s = 0;
  for (const auto& d : designs) {
    if (d.family != "suite") continue;
    const auto stream = stream_of(d);
    sim::SimResult sc, ts;
    double sc_crest = 0, ts_crest = 0;
    TimeSlicedRow row;
    row.bench = d.bench.name;
    row.num_clocks = d.num_clocks;
    row.scalar = time_runs(*d.syn.design, graph_of(d), stream,
                           kTsComputations, kScalarOnly, kReps, &sc, &sc_crest);
    row.sliced = time_runs(*d.syn.design, graph_of(d), stream,
                           kTsComputations, kSlicedAlways, kReps, &ts,
                           &ts_crest);
    if (!identical(ts, sc) || ts_crest != sc_crest) {
      std::fprintf(stderr,
                   "FATAL: %s n=%d time-sliced run differs from the scalar "
                   "run\n",
                   row.bench.c_str(), row.num_clocks);
      ok = false;
    }
    ts_scalar_s += row.scalar.pct50;
    ts_sliced_s += row.sliced.pct50;
    tsrows.push_back(row);
  }
  const double ts_speedup = ts_scalar_s / ts_sliced_s;
  if (ts_speedup < kTsFloor) {
    std::fprintf(stderr,
                 "FATAL: time-sliced speedup %.2fx is below the %.0fx floor "
                 "(scalar pct50 %.3fs / time-sliced pct50 %.3fs)\n",
                 ts_speedup, kTsFloor, ts_scalar_s, ts_sliced_s);
    ok = false;
  }

  // Crossover curve: summed per-call medians per family at each length.
  const std::vector<std::size_t> kCurve = {16, 32, 64, 128, 256, 1000, 4000};
  constexpr int kCurveReps = 3;
  std::vector<double> suite_curve, random_curve;
  for (const std::size_t n : kCurve) {
    double suite_sc = 0, suite_ts = 0, rand_sc = 0, rand_ts = 0;
    for (const auto& d : designs) {
      const auto stream = stream_of(d);
      sim::SimResult res;
      double crest = 0;
      const double sc = time_runs(*d.syn.design, graph_of(d), stream, n,
                                  kScalarOnly, kCurveReps, &res, &crest)
                            .pct50;
      const double ts = time_runs(*d.syn.design, graph_of(d), stream, n,
                                  kSlicedAlways, kCurveReps, &res, &crest)
                            .pct50;
      (d.family == "suite" ? suite_sc : rand_sc) += sc;
      (d.family == "suite" ? suite_ts : rand_ts) += ts;
    }
    suite_curve.push_back(suite_sc / suite_ts);
    random_curve.push_back(rand_sc / rand_ts);
  }

  TextTable t({"bench", "n", "comb", "obliv steps/s", "event steps/s",
               "speedup", "obliv evals/step", "event evals/step"});
  for (const auto& r : rows) {
    t.add_row({r.bench, std::to_string(r.num_clocks),
               std::to_string(r.comb_components),
               format_fixed(r.oblivious.steps_per_sec() / 1e6, 2) + "M",
               format_fixed(r.event.steps_per_sec() / 1e6, 2) + "M",
               format_fixed(r.event.steps_per_sec() /
                                r.oblivious.steps_per_sec(),
                            2) +
                   "x",
               format_fixed(r.oblivious.evals_per_step(), 2),
               format_fixed(r.event.evals_per_step(), 2)});
  }
  std::fputs(t.render().c_str(), stdout);

  std::printf("\n");
  TextTable st({"bench", "n", "sliced lane-steps/s", "serial lane-steps/s",
                "speedup"});
  for (const auto& r : srows) {
    st.add_row({r.bench, std::to_string(r.num_clocks),
                format_fixed(r.sliced_throughput() / 1e6, 2) + "M",
                format_fixed(r.serial_throughput() / 1e6, 2) + "M",
                format_fixed(r.speedup(), 2) + "x"});
  }
  std::fputs(st.render().c_str(), stdout);
  std::printf("\nbatch speedup (aggregate): %.2fx (floor 8x)\n",
              batch_speedup);

  std::printf("\n");
  TextTable tt({"bench", "n", "scalar ms/run", "time-sliced ms/run",
                "speedup"});
  for (const auto& r : tsrows) {
    tt.add_row({r.bench, std::to_string(r.num_clocks),
                format_fixed(r.scalar.pct50 * 1e3, 2),
                format_fixed(r.sliced.pct50 * 1e3, 2),
                format_fixed(r.speedup(), 2) + "x"});
  }
  std::fputs(tt.render().c_str(), stdout);
  std::printf("\ntime-sliced speedup (aggregate, %zu computations): %.2fx "
              "(floor %.0fx)\n",
              kTsComputations, ts_speedup, kTsFloor);
  TextTable ct({"computations", "suite speedup", "random-DFG speedup"});
  for (std::size_t i = 0; i < kCurve.size(); ++i) {
    ct.add_row({std::to_string(kCurve[i]),
                format_fixed(suite_curve[i], 2) + "x",
                format_fixed(random_curve[i], 2) + "x"});
  }
  std::printf("\ncrossover (dispatch threshold: %zu computations)\n",
              sim::Simulator::kTimeSlicedMinComputations);
  std::fputs(ct.render().c_str(), stdout);

  {
    std::ofstream js("BENCH_sim.json");
    js << "{\n  \"computations\": " << kComputations
       << ",\n  \"configs\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      js << "    {\"bench\": \"" << r.bench
         << "\", \"num_clocks\": " << r.num_clocks
         << ", \"comb_components\": " << r.comb_components
         << ",\n     \"oblivious\": {\"seconds\": " << r.oblivious.timing.pct50
         << ", \"steps_per_sec\": " << r.oblivious.steps_per_sec()
         << ", \"evals_per_step\": " << r.oblivious.evals_per_step()
         << ",\n       \"timing\": {";
      emit_timing(js, r.oblivious.timing);
      js << "}}"
         << ",\n     \"event\": {\"seconds\": " << r.event.timing.pct50
         << ", \"steps_per_sec\": " << r.event.steps_per_sec()
         << ", \"evals_per_step\": " << r.event.evals_per_step()
         << ",\n       \"timing\": {";
      emit_timing(js, r.event.timing);
      js << "}}"
         << ",\n     \"speedup\": "
         << r.event.steps_per_sec() / r.oblivious.steps_per_sec()
         << ", \"evals_ratio\": "
         << static_cast<double>(r.event.evals) /
                static_cast<double>(r.oblivious.evals)
         << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    js << "  ],\n  \"sliced\": {\"streams\": " << kStreams
       << ", \"computations\": " << kSlicedComputations
       << ", \"batch_speedup\": " << batch_speedup
       << ", \"speedup_floor\": 8.0,\n  \"configs\": [\n";
    for (std::size_t i = 0; i < srows.size(); ++i) {
      const auto& r = srows[i];
      js << "    {\"bench\": \"" << r.bench
         << "\", \"num_clocks\": " << r.num_clocks
         << ", \"sliced_seconds\": " << r.sliced.pct50
         << ", \"serial_seconds\": " << r.serial.pct50
         << ",\n     \"sliced_timing\": {";
      emit_timing(js, r.sliced);
      js << "}, \"serial_timing\": {";
      emit_timing(js, r.serial);
      js << "},\n     \"sliced_lane_steps_per_sec\": " << r.sliced_throughput()
         << ", \"serial_lane_steps_per_sec\": " << r.serial_throughput()
         << ", \"speedup\": " << r.speedup() << "}"
         << (i + 1 < srows.size() ? "," : "") << "\n";
    }
    js << "  ]},\n  \"time_sliced\": {\"computations\": " << kTsComputations
       << ", \"speedup\": " << ts_speedup << ", \"speedup_floor\": "
       << kTsFloor << ", \"dispatch_threshold\": "
       << sim::Simulator::kTimeSlicedMinComputations << ",\n  \"configs\": [\n";
    for (std::size_t i = 0; i < tsrows.size(); ++i) {
      const auto& r = tsrows[i];
      js << "    {\"bench\": \"" << r.bench
         << "\", \"num_clocks\": " << r.num_clocks
         << ", \"scalar_seconds\": " << r.scalar.pct50
         << ", \"time_sliced_seconds\": " << r.sliced.pct50
         << ", \"speedup\": " << r.speedup() << ",\n     \"scalar_timing\": {";
      emit_timing(js, r.scalar);
      js << "}, \"time_sliced_timing\": {";
      emit_timing(js, r.sliced);
      js << "}}" << (i + 1 < tsrows.size() ? "," : "") << "\n";
    }
    auto emit_list = [&](const auto& v) {
      for (std::size_t i = 0; i < v.size(); ++i) {
        js << (i ? ", " : "") << v[i];
      }
    };
    js << "  ],\n  \"crossover\": {\"computations\": [";
    emit_list(kCurve);
    js << "],\n    \"suite_speedup\": [";
    emit_list(suite_curve);
    js << "],\n    \"random_dfg_speedup\": [";
    emit_list(random_curve);
    js << "]}},\n  \"host\": " << bench::host_json()
       << ",\n  \"identical_results\": " << (ok ? "true" : "false")
       << ",\n  \"guard\": \"event evals <= oblivious evals on every config; "
          "results bit-identical; sliced results bit-identical per stream; "
          "batch speedup (pct50) >= 8x; time-sliced results bit-identical to "
          "scalar; time-sliced speedup (pct50) >= 4x\"\n}\n";
  }
  std::printf("\nwrote BENCH_sim.json (%zu + %zu + %zu configs), guard %s\n",
              rows.size(), srows.size(), tsrows.size(), ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
