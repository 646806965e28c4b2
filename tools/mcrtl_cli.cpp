// mcrtl — command-line front end to the library.
//
// Usage:
//   mcrtl list
//       List the built-in benchmark behaviours.
//   mcrtl synth  (<benchmark> | --dfg <file>) [options]
//       Synthesize, verify equivalence, report power/area and structure.
//   mcrtl table  (<benchmark> | --dfg <file>) [options]
//       Run all five paper design styles and print the table row set.
//   mcrtl emit   (<benchmark> | --dfg <file>) [options]
//       Write structural VHDL to stdout.
//   mcrtl dot    (<benchmark> | --dfg <file>) [options]
//       Write the partition-coloured scheduled DFG in Graphviz format.
//   mcrtl explore (<benchmark> | --dfg <file>) [options]
//       Design-space exploration: evaluate every configuration up to
//       --clocks clocks in parallel, print the Pareto-marked table.
//   mcrtl search [<benchmark>[,<benchmark>...]] [options]
//       Guided design-space search over {benchmark x width x schedule x
//       synthesis variant}: successive-halving prefix budgets, dominance
//       early-abort, optional persistent result cache. Prints the
//       per-behaviour Pareto front; --csv/--json write every surviving row
//       (plus the pruned candidates) in a deterministic order.
//   mcrtl merge (<benchmark> | --dfg <file>) --journals a,b,... [options]
//       Merge the checkpoint journals of a sharded sweep (see --shard)
//       into the complete result. Strict: a torn/corrupt/stale journal,
//       overlapping disagreement or missing coverage aborts with a
//       diagnostic; on success the --csv/--json reports are byte-identical
//       to an unsharded `mcrtl explore` of the same sweep.
//   mcrtl serve --socket PATH [--cache-db FILE] [options]
//       Long-lived sweep daemon on a unix socket: dedupes concurrent
//       identical requests, serves repeated sweeps from the point cache,
//       computes the rest in-process on --jobs threads. Stop with
//       `mcrtl query --socket PATH --shutdown`.
//   mcrtl query <benchmark> --socket PATH [options]
//       Ask a running daemon for a sweep; prints the CSV report (the same
//       bytes `mcrtl explore --csv` writes) on stdout.
//
// Options:
//   --clocks N       number of non-overlapping clocks (default 2)
//   --width W        datapath bit width for built-in benchmarks (default 4)
//   --style S        conv | gated | multi (default multi)
//   --method M       integrated | split (default integrated)
//   --dff            use D-flip-flops instead of latches (ablation)
//   --isolation      add hold-mode operand isolation
//   --computations N simulation length (default 2000)
//   --seed N         stimulus seed (default 1996)
//   --streams N      (explore) independent Monte-Carlo stimulus streams per
//                    point, 1..64 (default 1). N > 1 switches points to the
//                    bit-sliced batch kernel: power becomes the per-stream
//                    mean and the CSV/JSON rows carry power_stddev_mw /
//                    power_ci95_mw
//   --csv FILE       also write measured rows as CSV
//   --json FILE      (explore) also write measured rows as JSON
//   --jobs N         worker threads for table/explore (default: all cores;
//                    results are identical for any N)
//   --checkpoint FILE (explore) crash-safe journal: completed points are
//                    fsync'd as they finish; re-running the same command
//                    resumes, skipping journalled points (byte-identical
//                    reports). A journal from a different configuration is
//                    rejected.
//   --shard i/N      (explore) evaluate only shard i of N (1-based): the
//                    enumeration indices with (index-1) mod N == i-1 by
//                    round-robin. Requires --checkpoint — the journal is
//                    the shard's product; run all N shards (as separate
//                    processes, any order) and `mcrtl merge` the journals
//   --journals LIST  (merge) comma-separated shard journal files
//   --socket PATH    (serve/query) unix socket of the sweep daemon
//   --shutdown       (query) ask the daemon to stop instead of sweeping
//   --point-timeout S (explore) per-point simulation deadline in seconds;
//                    an expired point is retried/quarantined like a failure
//   --retries N      (explore) extra attempts per failing point (default 0)
//   --backoff MS     (explore) delay before the first retry, doubled per
//                    further attempt (default 0)
//   --no-quarantine  (explore) abort the sweep on the first exhausted
//                    failure instead of recording it and continuing
//   --fault-inject S arm a fault-injection site (testing): SPEC is
//                    site:always | site:first:K | site:p:P[:seed] |
//                    site:observe, each optionally :match=SUBSTR;
//                    repeatable
//   --vcd FILE       (synth) dump a VCD waveform of the measured run
//   --power-trace-out FILE (synth) write the per-clock-domain energy
//                    waveform (fJ per master cycle, one column per domain)
//                    as CSV; the same waveform is merged into --trace-out
//                    as Perfetto counter tracks
//   --power-top K    (synth) print the K hottest components of the
//                    hierarchical power attribution
//   --power-flame FILE (synth) write the attribution as flamegraph
//                    collapsed stacks ("domain;component;op fJ" lines)
//   --trace-out FILE enable tracing; write Chrome trace-event JSON
//                    (chrome://tracing / Perfetto) on exit
//   --metrics-out FILE enable tracing; write counters/gauges/span JSON
//   --progress       live progress on stderr (explore) + span/counter
//                    summary tables on exit
//   --widths LIST    (search) comma-separated datapath widths (default:
//                    --width alone)
//   --limits LIST    (search) comma-separated per-op-class resource limits
//                    for list re-scheduling; 0 = the benchmark's reference
//                    schedule (default "0")
//   --budget-rungs N (search) prefix rungs before full depth (default 3;
//                    0 = evaluate everything at full depth)
//   --promote-frac F (search) fraction promoted unconditionally per rung
//                    (default 0.4)
//   --optimism F     (search) prefix-bound slack in (0,1] (default 0.85)
//   --min-survivors N (search) never abort a behaviour below this many
//                    candidates (default 4)
//   --cache-db FILE  (search) persistent result cache: full rows are keyed
//                    per point (reusable across overlapping sweeps), pruned
//                    markers per sweep; a repeated search is 100% cache
//                    hits and simulates nothing
//   --pareto-only    (search) restrict --csv/--json to the Pareto front
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/explorer.hpp"
#include "core/search.hpp"
#include "core/serve.hpp"
#include "core/shard.hpp"
#include "core/synthesizer.hpp"
#include "dfg/dot.hpp"
#include "dfg/textio.hpp"
#include "obs/obs.hpp"
#include "power/attribution.hpp"
#include "power/estimator.hpp"
#include "power/report.hpp"
#include "rtl/analysis.hpp"
#include "sim/equivalence.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "sim/vcd.hpp"
#include "suite/benchmarks.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "vhdl/emitter.hpp"
#include "vhdl/verilog.hpp"

using namespace mcrtl;

namespace {

struct CliOptions {
  std::string command;
  std::string benchmark;
  std::string dfg_file;
  int clocks = 2;
  unsigned width = 4;
  std::string style = "multi";
  std::string method = "integrated";
  bool dff = false;
  bool isolation = false;
  std::size_t computations = 2000;
  std::uint64_t seed = 1996;
  std::size_t streams = 1;
  std::string csv_file;
  std::string json_file;
  int jobs = 0;  // <= 0: auto (hardware concurrency)
  std::string checkpoint_file;
  double point_timeout_s = 0.0;
  int retries = 0;
  double backoff_ms = 0.0;
  bool no_quarantine = false;
  std::vector<std::string> fault_specs;
  std::string vcd_file;
  std::string power_trace_file;
  std::string power_flame_file;
  int power_top = 0;
  std::string trace_file;
  std::string metrics_file;
  bool progress = false;
  // search-specific
  std::vector<int> widths;       // empty = just `width`
  std::vector<int> limits = {0};  // 0 = reference schedule
  int budget_rungs = 3;
  double promote_frac = 0.4;
  double optimism = 0.85;
  std::size_t min_survivors = 4;
  std::string cache_db;
  bool pareto_only = false;
  // shard/daemon-specific
  std::string shard;     // "i/N" (explore)
  std::string journals;  // comma list (merge)
  std::string socket;    // unix socket path (serve/query)
  bool shutdown = false; // query: stop the daemon

  /// Any observability request turns collection on.
  bool obs_enabled() const {
    return !trace_file.empty() || !metrics_file.empty() || progress;
  }
};

int usage() {
  std::fprintf(stderr,
               "usage: mcrtl <list|synth|table|emit|emit-verilog|dot|explore"
               "|search|merge|serve|query> [<benchmark>] "
               "[--dfg file] [--clocks N] [--width W]\n"
               "             [--style conv|gated|multi] [--method "
               "integrated|split] [--dff] [--isolation]\n"
               "             [--computations N] [--seed N] [--streams N] "
               "[--csv file] [--json file] [--jobs N]\n"
               "             [--checkpoint file] [--point-timeout s] "
               "[--retries N] [--backoff ms]\n"
               "             [--no-quarantine] [--fault-inject spec]\n"
               "             [--vcd file] [--power-trace-out file] "
               "[--power-top K] [--power-flame file]\n"
               "             [--trace-out file] "
               "[--metrics-out file] [--progress]\n"
               "             [--widths LIST] [--limits LIST] "
               "[--budget-rungs N] [--promote-frac F] [--optimism F]\n"
               "             [--min-survivors N] [--cache-db file] "
               "[--pareto-only]\n"
               "             [--shard i/N] [--journals a,b,...] "
               "[--socket path] [--shutdown]\n");
  return 2;
}

/// `token` as a number of `out`'s type: the whole token, in range. Integers
/// are base 10, and unsigned fields take no sign.
template <typename T>
bool parse_number(const std::string& token, T& out) {
  if constexpr (std::is_floating_point_v<T>) {
    return parse_double(token, out);
  } else if constexpr (std::is_signed_v<T>) {
    long long v = 0;
    if (!parse_int(token, v) || v < std::numeric_limits<T>::min() ||
        v > std::numeric_limits<T>::max()) {
      return false;
    }
    out = static_cast<T>(v);
    return true;
  } else {
    unsigned long long v = 0;
    if (!parse_uint(token, v) || v > std::numeric_limits<T>::max()) {
      return false;
    }
    out = static_cast<T>(v);
    return true;
  }
}

/// Parses argv into `o`. False on a usage error; a bad number names its
/// flag on stderr.
bool parse_args(int argc, char** argv, CliOptions& o) {
  if (argc < 2) return false;
  o.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    // The flag's value, or false when it is missing.
    std::string v;
    auto value = [&] {
      if (i + 1 >= argc) return false;
      v = argv[++i];
      return true;
    };
    auto text = [&](std::string& out) {
      if (!value()) return false;
      out = v;
      return true;
    };
    auto bad = [&] {
      std::fprintf(stderr, "error: bad value '%s' for %s\n", v.c_str(),
                   a.c_str());
      return false;
    };
    auto number = [&](auto& out) {
      if (!value()) return false;
      return parse_number(v, out) || bad();
    };
    // A comma list of integers; empty items are skipped.
    auto int_list = [&](std::vector<int>& out) {
      if (!value()) return false;
      out.clear();
      std::istringstream is(v);
      std::string tok;
      while (std::getline(is, tok, ',')) {
        if (tok.empty()) continue;
        int x = 0;
        if (!parse_number(tok, x)) return bad();
        out.push_back(x);
      }
      return true;
    };
    bool ok = true;
    if (a == "--dfg") {
      ok = text(o.dfg_file);
    } else if (a == "--clocks") {
      ok = number(o.clocks);
    } else if (a == "--width") {
      ok = number(o.width);
    } else if (a == "--style") {
      ok = text(o.style);
    } else if (a == "--method") {
      ok = text(o.method);
    } else if (a == "--dff") {
      o.dff = true;
    } else if (a == "--isolation") {
      o.isolation = true;
    } else if (a == "--computations") {
      ok = number(o.computations);
    } else if (a == "--seed") {
      ok = number(o.seed);
    } else if (a == "--streams") {
      ok = number(o.streams);
    } else if (a == "--csv") {
      ok = text(o.csv_file);
    } else if (a == "--json") {
      ok = text(o.json_file);
    } else if (a == "--checkpoint") {
      ok = text(o.checkpoint_file);
    } else if (a == "--point-timeout") {
      ok = number(o.point_timeout_s);
    } else if (a == "--retries") {
      ok = number(o.retries);
    } else if (a == "--backoff") {
      ok = number(o.backoff_ms);
    } else if (a == "--no-quarantine") {
      o.no_quarantine = true;
    } else if (a == "--fault-inject") {
      ok = value();
      if (ok) o.fault_specs.push_back(v);
    } else if (a == "--jobs") {
      ok = number(o.jobs);
    } else if (a == "--vcd") {
      ok = text(o.vcd_file);
    } else if (a == "--power-trace-out") {
      ok = text(o.power_trace_file);
    } else if (a == "--power-flame") {
      ok = text(o.power_flame_file);
    } else if (a == "--power-top") {
      ok = number(o.power_top);
    } else if (a == "--trace-out") {
      ok = text(o.trace_file);
    } else if (a == "--metrics-out") {
      ok = text(o.metrics_file);
    } else if (a == "--progress") {
      o.progress = true;
    } else if (a == "--widths") {
      ok = int_list(o.widths);
    } else if (a == "--limits") {
      ok = int_list(o.limits);
    } else if (a == "--budget-rungs") {
      ok = number(o.budget_rungs);
    } else if (a == "--promote-frac") {
      ok = number(o.promote_frac);
    } else if (a == "--optimism") {
      ok = number(o.optimism);
    } else if (a == "--min-survivors") {
      ok = number(o.min_survivors);
    } else if (a == "--cache-db") {
      ok = text(o.cache_db);
    } else if (a == "--pareto-only") {
      o.pareto_only = true;
    } else if (a == "--shard") {
      ok = text(o.shard);
    } else if (a == "--journals") {
      ok = text(o.journals);
    } else if (a == "--socket") {
      ok = text(o.socket);
    } else if (a == "--shutdown") {
      o.shutdown = true;
    } else if (!a.empty() && a[0] != '-') {
      o.benchmark = a;
    } else {
      ok = false;
    }
    if (!ok) return false;
  }
  return true;
}

/// Load the behaviour: built-in benchmark or .dfg file.
struct Loaded {
  std::unique_ptr<dfg::Graph> graph;
  std::unique_ptr<dfg::Schedule> schedule;
  std::string name;
};

Loaded load(const CliOptions& o) {
  Loaded l;
  if (!o.dfg_file.empty()) {
    std::ifstream in(o.dfg_file);
    if (!in) throw mcrtl::Error("cannot open " + o.dfg_file);
    std::ostringstream os;
    os << in.rdbuf();
    auto parsed = dfg::parse_dfg(os.str());
    l.graph = std::move(parsed.graph);
    if (parsed.schedule) {
      l.schedule = std::move(parsed.schedule);
    } else {
      dfg::ResourceLimits limits;
      limits.default_limit = 2;
      l.schedule =
          std::make_unique<dfg::Schedule>(dfg::schedule_list(*l.graph, limits));
    }
    l.name = l.graph->name();
    return l;
  }
  if (o.benchmark.empty()) throw mcrtl::Error("no benchmark or --dfg file given");
  auto b = suite::by_name(o.benchmark, o.width);
  l.graph = std::move(b.graph);
  l.schedule = std::move(b.schedule);
  l.name = b.name;
  return l;
}

core::SynthesisOptions synth_options(const CliOptions& o) {
  core::SynthesisOptions opts;
  if (o.style == "conv") {
    opts.style = core::DesignStyle::ConventionalNonGated;
  } else if (o.style == "gated") {
    opts.style = core::DesignStyle::ConventionalGated;
  } else if (o.style == "multi") {
    opts.style = core::DesignStyle::MultiClock;
    opts.num_clocks = o.clocks;
  } else {
    throw mcrtl::Error("unknown --style '" + o.style + "'");
  }
  if (o.method == "split") {
    opts.method = core::AllocMethod::Split;
  } else if (o.method != "integrated") {
    throw mcrtl::Error("unknown --method '" + o.method + "'");
  }
  opts.use_latches = !o.dff;
  opts.operand_isolation = o.isolation;
  return opts;
}

power::ExperimentRecord measure(const Loaded& l,
                                const core::SynthesisOptions& opts,
                                const CliOptions& o, bool print_structure) {
  const auto syn = core::synthesize(*l.graph, *l.schedule, opts);
  Rng rng(o.seed);
  const auto stream = sim::uniform_stream(rng, l.graph->inputs().size(),
                                          o.computations, l.graph->width());
  // One simulation feeds the equivalence check (its sampled outputs) and
  // the power estimate (its Activity).
  sim::Simulator simulator(*syn.design);
  // Waveform dump and per-partition activity telemetry are only wired on the
  // single-design path (synth); cmd_table calls measure() concurrently.
  std::unique_ptr<sim::VcdTracer> vcd;
  if (print_structure && !o.vcd_file.empty()) {
    vcd = std::make_unique<sim::VcdTracer>(*syn.design);
    simulator.set_observer([&](std::uint64_t step, const auto& nets) {
      vcd->record(step, nets);
    });
  }
  sim::PhaseHeatmap heatmap;
  const bool want_heatmap = print_structure && obs::enabled();
  if (want_heatmap) simulator.set_heatmap(&heatmap);
  const auto tech = power::TechLibrary::cmos08();
  const power::Attribution attribution(*syn.design, tech);
  // The power profile rides on the same run whenever anything will consume
  // it: an explicit --power-* flag, or tracing (the per-domain waveform is
  // merged into the Chrome trace as counter tracks). Attaching the probe
  // never changes simulation results.
  const bool want_power_profile =
      print_structure && (!o.power_trace_file.empty() ||
                          !o.power_flame_file.empty() || o.power_top > 0 ||
                          obs::enabled());
  std::unique_ptr<sim::PowerProbe> probe;
  if (want_power_profile) {
    // The per-domain waveform is kept only for its two consumers: the
    // --power-trace-out CSV and the trace's counter tracks.
    const unsigned record =
        (obs::enabled() ? sim::PowerProbe::kStepHistogram : 0) |
        (!o.power_trace_file.empty() || obs::enabled()
             ? sim::PowerProbe::kWaveform
             : 0);
    probe = std::make_unique<sim::PowerProbe>(attribution.energy_model(),
                                              record);
    simulator.set_power_probe(probe.get());
  }
  const auto res = simulator.run(stream, l.graph->inputs(), l.graph->outputs());
  const auto rep = sim::check_outputs(*l.graph, stream, res.outputs,
                                      syn.design->style_name);
  if (!rep.equivalent) throw mcrtl::Error("equivalence failure: " + rep.detail);
  if (vcd) {
    std::ofstream(o.vcd_file) << vcd->render();
    std::printf("wrote %s\n", o.vcd_file.c_str());
  }
  if (want_heatmap) {
    std::printf("\nper-partition storage activity (write-toggles/clock-edges "
                "per period step):\n%s",
                sim::render_heatmap(heatmap).c_str());
    for (int p = 1; p <= heatmap.num_phases; ++p) {
      obs::set_gauge(str_format("sim.phase%d.write_toggles", p),
                     static_cast<double>(heatmap.phase_total(p)));
    }
  }
  power::ExperimentRecord rec;
  rec.experiment = "cli";
  rec.design = syn.design->style_name;
  rec.benchmark = l.name;
  rec.width = l.graph->width();
  rec.computations = o.computations;
  rec.power = attribution.power(res.activity, power::PowerParams{});
  rec.area = power::estimate_area(*syn.design, tech);
  rec.stats = syn.design->stats;

  if (want_power_profile) {
    if (obs::enabled()) {
      power::publish_power_tracks(*probe);
      obs::merge_histogram("power.step_fj", probe->step_histogram());
    }
    const auto arep = attribution.attribute(res.activity);
    if (!arep.rows.empty()) {
      rec.hotspot = arep.rows.front().component;
      rec.hotspot_share = arep.total_fj > 0.0
                              ? arep.rows.front().energy_fj / arep.total_fj
                              : 0.0;
    }
    rec.crest = probe->crest();
    if (!o.power_trace_file.empty()) {
      std::ofstream out(o.power_trace_file);
      out << "step";
      for (int d = 0; d <= probe->num_domains(); ++d) {
        out << ',' << power::domain_label(d) << "_fj";
      }
      out << '\n';
      for (std::size_t s = 0; s < probe->steps(); ++s) {
        out << s;
        for (int d = 0; d <= probe->num_domains(); ++d) {
          out << ',' << str_format("%.3f", probe->step_fj(s, d));
        }
        out << '\n';
      }
      std::printf("wrote %s\n", o.power_trace_file.c_str());
    }
    if (!o.power_flame_file.empty()) {
      std::ofstream(o.power_flame_file) << arep.collapsed_stacks();
      std::printf("wrote %s\n", o.power_flame_file.c_str());
    }
    if (o.power_top > 0) {
      std::printf("\ntop %d power hotspots (of %zu attributed rows, "
                  "%.0f fJ total, crest %.2f):\n%s",
                  o.power_top, arep.rows.size(), arep.total_fj, rec.crest,
                  arep.top_table(static_cast<std::size_t>(o.power_top))
                      .c_str());
    }
  }

  if (print_structure) {
    std::printf("%s\n", rtl::describe_dpms(*syn.design).c_str());
    const auto safety = rtl::check_timing_safety(*syn.design);
    std::printf("timing safety: %s\n",
                safety.safe ? "OK" : safety.violations[0].c_str());
  }
  return rec;
}

int cmd_list() {
  for (const auto& name : suite::all_names()) {
    const auto b = suite::by_name(name, 4);
    std::printf("%-11s %3zu ops %2d steps  %s\n", name.c_str(),
                b.graph->num_nodes(), b.schedule->num_steps(),
                b.description.c_str());
  }
  return 0;
}

int cmd_synth(const CliOptions& o) {
  const Loaded l = load(o);
  const auto rec = measure(l, synth_options(o), o, /*print_structure=*/true);
  std::printf("\npower: %s\narea:  %.0f lambda^2\nALUs %s | %d mem cells | "
              "%d mux inputs\n",
              rec.power.to_string().c_str(), rec.area.total,
              rec.stats.alu_summary.c_str(), rec.stats.num_memory_cells,
              rec.stats.num_mux_inputs);
  if (!o.csv_file.empty()) {
    std::ofstream(o.csv_file) << power::to_csv({rec});
    std::printf("wrote %s\n", o.csv_file.c_str());
  }
  return 0;
}

int cmd_table(const CliOptions& o) {
  const Loaded l = load(o);
  struct Row {
    core::DesignStyle style;
    int clocks;
  };
  const Row rows[] = {{core::DesignStyle::ConventionalNonGated, 1},
                      {core::DesignStyle::ConventionalGated, 1},
                      {core::DesignStyle::MultiClock, 1},
                      {core::DesignStyle::MultiClock, 2},
                      {core::DesignStyle::MultiClock, 3}};
  // Measure the five rows concurrently; each slot is written by exactly one
  // worker and the table is rendered afterwards in row order.
  std::vector<power::ExperimentRecord> recs(std::size(rows));
  mcrtl::ThreadPool pool(ThreadPool::resolve_jobs(o.jobs));
  pool.parallel_for_index(std::size(rows), [&](std::size_t i) {
    CliOptions ro = o;
    ro.style = rows[i].style == core::DesignStyle::MultiClock ? "multi"
               : rows[i].style == core::DesignStyle::ConventionalGated
                   ? "gated"
                   : "conv";
    ro.clocks = rows[i].clocks;
    recs[i] = measure(l, synth_options(ro), ro, false);
  });
  TextTable t({"Design", "Power[mW]", "Area[1e6 l^2]", "ALUs", "Mem", "MuxIn"});
  for (const auto& rec : recs) {
    t.add_row({rec.design, format_fixed(rec.power.total, 2),
               format_fixed(rec.area.total / 1e6, 2), rec.stats.alu_summary,
               std::to_string(rec.stats.num_memory_cells),
               std::to_string(rec.stats.num_mux_inputs)});
  }
  std::fputs(t.render().c_str(), stdout);
  if (!o.csv_file.empty()) {
    std::ofstream(o.csv_file) << power::to_csv(recs);
    std::printf("wrote %s\n", o.csv_file.c_str());
  }
  return 0;
}

/// The explore/merge ExplorerConfig, minus execution knobs only explore
/// uses — both commands must describe the *same sweep* (same checkpoint
/// fingerprint) or merge would reject every shard journal.
core::ExplorerConfig explorer_config(const CliOptions& o) {
  core::ExplorerConfig cfg;
  cfg.max_clocks = o.clocks;
  cfg.include_dff_variant = o.dff;
  cfg.computations = o.computations;
  cfg.seed = o.seed;
  cfg.streams = o.streams;
  return cfg;
}

int cmd_explore(const CliOptions& o) {
  const Loaded l = load(o);
  core::ExplorerConfig cfg = explorer_config(o);
  cfg.jobs = o.jobs;
  cfg.checkpoint_file = o.checkpoint_file;
  cfg.point_timeout_s = o.point_timeout_s;
  cfg.max_retries = o.retries;
  cfg.retry_backoff_ms = o.backoff_ms;
  // The CLI sweep is fault-isolated by default: one bad configuration is
  // reported in the "failed" table below rather than killing a long run.
  cfg.quarantine = !o.no_quarantine;
  if (!o.shard.empty()) {
    const core::ShardSpec spec = core::parse_shard(o.shard);
    cfg.shard_index = spec.index;
    cfg.shard_count = spec.count;
    if (cfg.shard_count > 1 && o.checkpoint_file.empty()) {
      throw mcrtl::Error(
          "--shard needs --checkpoint: the journal is the shard's product "
          "(mcrtl merge reassembles the sweep from the shard journals)");
    }
  }

  // Live progress: counts points as workers finish them (the hook runs
  // concurrently — everything it touches is atomic or a local stderr write).
  const std::size_t total = core::num_configurations(cfg);
  std::atomic<std::size_t> done{0};
  const auto t0 = std::chrono::steady_clock::now();
  if (o.progress) {
    cfg.on_point = [&](const core::ExplorationPoint&) {
      const std::size_t k = done.fetch_add(1, std::memory_order_relaxed) + 1;
      const double el =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      const double rate = el > 0 ? static_cast<double>(k) / el : 0.0;
      std::fprintf(stderr, "\r[%zu/%zu] %.1f points/s, ETA %.1fs   ", k, total,
                   rate,
                   rate > 0 ? static_cast<double>(total - k) / rate : 0.0);
    };
  }

  const auto r = core::explore(*l.graph, *l.schedule, cfg);

  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (o.progress) std::fprintf(stderr, "\n");
  obs::set_gauge("explore.points_per_second",
                 elapsed > 0 ? static_cast<double>(r.points.size()) / elapsed
                             : 0.0);
  if (obs::enabled()) {
    // Per-worker utilization: busy span time per lane over the explore wall
    // clock (lane 0 is the main thread; with jobs > 1 it only coordinates).
    for (const auto& lane : obs::Registry::instance().lane_stats()) {
      if (lane.lane == 0) continue;
      obs::set_gauge(str_format("explore.worker%d.utilization", lane.lane - 1),
                     elapsed > 0 ? lane.busy_ms / (elapsed * 1e3) : 0.0);
    }
  }

  std::printf("%s: %zu design points (%u jobs)", l.name.c_str(),
              r.points.size(), ThreadPool::resolve_jobs(o.jobs));
  if (cfg.shard_count > 1) {
    std::printf(", shard %d/%d", cfg.shard_index + 1, cfg.shard_count);
  }
  if (r.replayed_points > 0) {
    std::printf(", %zu replayed from %s", r.replayed_points,
                o.checkpoint_file.c_str());
  }
  std::printf("\n\n");
  // With a multi-stream sweep the table gains the 95% confidence half-width
  // of the per-stream power totals; single-stream keeps the historical shape.
  const bool sliced = o.streams > 1;
  TextTable t(sliced ? std::vector<std::string>{"configuration", "P[mW]",
                                                "+/-95%", "area[1e6 l^2]",
                                                "Pareto"}
                     : std::vector<std::string>{"configuration", "P[mW]",
                                                "area[1e6 l^2]", "Pareto"});
  for (const auto& p : r.points) {
    if (sliced) {
      t.add_row({p.label, format_fixed(p.power.total, 2),
                 format_fixed(p.power_ci95, 2),
                 format_fixed(p.area.total / 1e6, 2), p.pareto ? "*" : ""});
    } else {
      t.add_row({p.label, format_fixed(p.power.total, 2),
                 format_fixed(p.area.total / 1e6, 2), p.pareto ? "*" : ""});
    }
  }
  // One record builder for explore, merge and the daemon — byte-identical
  // CSV/JSON across all three paths.
  const auto recs = core::explore_records(r, l.name, l.graph->width(),
                                          o.computations, o.streams);
  std::fputs(t.render().c_str(), stdout);
  if (!r.failed_points.empty()) {
    std::printf("\n%zu configuration(s) failed and were quarantined:\n",
                r.failed_points.size());
    TextTable ft({"configuration", "attempts", "error"});
    for (const auto& f : r.failed_points) {
      ft.add_row({f.label, std::to_string(f.attempts), f.error});
    }
    std::fputs(ft.render().c_str(), stdout);
  }
  if (!r.points.empty()) {
    std::printf("best power: %s (%.2f mW)\n", r.best_power().label.c_str(),
                r.best_power().power.total);
  }
  if (!o.csv_file.empty()) {
    std::ofstream(o.csv_file) << power::to_csv(recs);
    std::printf("wrote %s\n", o.csv_file.c_str());
  }
  if (!o.json_file.empty()) {
    std::ofstream(o.json_file) << power::to_json(recs);
    std::printf("wrote %s\n", o.json_file.c_str());
  }
  // A quarantined point is a *reported* degradation, not a failure of the
  // sweep itself: the exit code stays 0 so scripted sweeps keep their
  // partial results.
  return 0;
}

int cmd_merge(const CliOptions& o) {
  if (o.journals.empty()) {
    throw mcrtl::Error("merge needs --journals a.journal,b.journal,...");
  }
  std::vector<std::string> paths;
  {
    std::istringstream is(o.journals);
    std::string tok;
    while (std::getline(is, tok, ',')) {
      if (!tok.empty()) paths.push_back(tok);
    }
  }
  const Loaded l = load(o);
  const core::ExplorerConfig cfg = explorer_config(o);
  core::MergeStats ms;
  const auto r =
      core::merge_shard_journals(*l.graph, *l.schedule, cfg, paths, &ms);

  std::printf("%s: merged %zu design points from %zu shard journal(s)",
              l.name.c_str(), r.points.size(), ms.journals);
  if (ms.overlap_records > 0) {
    std::printf(", %zu agreeing overlap record(s)", ms.overlap_records);
  }
  std::printf("\n\n");
  const bool sliced = o.streams > 1;
  TextTable t(sliced ? std::vector<std::string>{"configuration", "P[mW]",
                                                "+/-95%", "area[1e6 l^2]",
                                                "Pareto"}
                     : std::vector<std::string>{"configuration", "P[mW]",
                                                "area[1e6 l^2]", "Pareto"});
  for (const auto& p : r.points) {
    if (sliced) {
      t.add_row({p.label, format_fixed(p.power.total, 2),
                 format_fixed(p.power_ci95, 2),
                 format_fixed(p.area.total / 1e6, 2), p.pareto ? "*" : ""});
    } else {
      t.add_row({p.label, format_fixed(p.power.total, 2),
                 format_fixed(p.area.total / 1e6, 2), p.pareto ? "*" : ""});
    }
  }
  const auto recs = core::explore_records(r, l.name, l.graph->width(),
                                          o.computations, o.streams);
  std::fputs(t.render().c_str(), stdout);
  if (!r.points.empty()) {
    std::printf("best power: %s (%.2f mW)\n", r.best_power().label.c_str(),
                r.best_power().power.total);
  }
  if (!o.csv_file.empty()) {
    std::ofstream(o.csv_file) << power::to_csv(recs);
    std::printf("wrote %s\n", o.csv_file.c_str());
  }
  if (!o.json_file.empty()) {
    std::ofstream(o.json_file) << power::to_json(recs);
    std::printf("wrote %s\n", o.json_file.c_str());
  }
  return 0;
}

int cmd_serve(const CliOptions& o) {
  if (o.socket.empty()) throw mcrtl::Error("serve needs --socket PATH");
  core::SweepServer::Config sc;
  sc.socket_path = o.socket;
  sc.cache_db = o.cache_db;
  sc.jobs = o.jobs;
  core::SweepServer server(std::move(sc));
  server.start();
  std::printf("serving on %s (in-process%s)\n", o.socket.c_str(),
              o.cache_db.empty() ? "" : ", persistent cache");
  std::fflush(stdout);
  server.wait_until_stopped();
  server.stop();
  const auto st = server.stats();
  std::printf("served %llu request(s): %llu computed, %llu from cache, "
              "%llu joined in-flight, %llu rejected\n",
              static_cast<unsigned long long>(st.requests),
              static_cast<unsigned long long>(st.sweeps_computed),
              static_cast<unsigned long long>(st.served_from_cache),
              static_cast<unsigned long long>(st.joined_inflight),
              static_cast<unsigned long long>(st.rejected));
  return 0;
}

int cmd_query(const CliOptions& o) {
  if (o.socket.empty()) throw mcrtl::Error("query needs --socket PATH");
  if (o.shutdown) {
    if (!core::serve_shutdown(o.socket)) {
      throw mcrtl::Error("daemon at " + o.socket +
                         " did not acknowledge the shutdown");
    }
    std::printf("daemon at %s shutting down\n", o.socket.c_str());
    return 0;
  }
  if (o.benchmark.empty()) throw mcrtl::Error("query needs a benchmark name");
  core::SweepRequest req;
  req.benchmark = o.benchmark;
  req.width = o.width;
  req.clocks = o.clocks;
  req.dff = o.dff;
  req.computations = o.computations;
  req.seed = o.seed;
  req.streams = o.streams;
  const auto rep = core::serve_query(o.socket, req);
  if (!rep.ok) throw mcrtl::Error("daemon refused the sweep: " + rep.error);
  std::fprintf(stderr, "%zu rows, %s (cached %zu/%zu points, fp %s)\n",
               rep.rows, rep.computed ? "computed" : "served from cache",
               rep.cached_points, rep.total_points, rep.fingerprint.c_str());
  if (!o.csv_file.empty()) {
    std::ofstream(o.csv_file) << rep.payload;
    std::fprintf(stderr, "wrote %s\n", o.csv_file.c_str());
  } else {
    std::fputs(rep.payload.c_str(), stdout);
  }
  return 0;
}

int cmd_search(const CliOptions& o) {
  // Behaviour grid: benchmarks (comma list) x widths x schedule resource
  // limits. Limit 0 keeps the benchmark's reference schedule; L > 0
  // re-schedules with a per-op-class cap of L.
  std::vector<std::string> names;
  {
    std::istringstream is(o.benchmark.empty() ? std::string("facet,hal")
                                              : o.benchmark);
    std::string tok;
    while (std::getline(is, tok, ',')) {
      if (!tok.empty()) names.push_back(tok);
    }
  }
  std::vector<int> widths = o.widths.empty()
                                ? std::vector<int>{static_cast<int>(o.width)}
                                : o.widths;
  std::vector<int> limits = o.limits;
  if (limits.empty()) limits.push_back(0);

  // The graphs/schedules must outlive search(); the space only points at
  // them.
  std::vector<std::unique_ptr<dfg::Graph>> graphs;
  std::vector<std::unique_ptr<dfg::Schedule>> schedules;
  core::SearchSpace space;
  for (const auto& name : names) {
    for (const int w : widths) {
      for (const int lim : limits) {
        auto b = suite::by_name(name, static_cast<unsigned>(w));
        graphs.push_back(std::move(b.graph));
        if (lim > 0) {
          dfg::ResourceLimits rl;
          rl.default_limit = lim;
          schedules.push_back(std::make_unique<dfg::Schedule>(
              dfg::schedule_list(*graphs.back(), rl)));
        } else {
          schedules.push_back(std::move(b.schedule));
        }
        // Schedule variants of one (benchmark, width) compute the same
        // function, so they compete in a single dominance group.
        space.behaviours.push_back(core::SearchBehaviour{
            str_format("%s/w%d/%s", name.c_str(), w,
                       lim > 0 ? str_format("lim%d", lim).c_str() : "ref"),
            graphs.back().get(), schedules.back().get(),
            str_format("%s/w%d", name.c_str(), w)});
      }
    }
  }
  core::cross_variants(space, core::search_variants(o.clocks));

  core::SearchConfig cfg;
  cfg.computations = o.computations;
  cfg.seed = o.seed;
  cfg.streams = o.streams;
  cfg.jobs = o.jobs;
  cfg.budget_rungs = o.budget_rungs;
  cfg.promote_fraction = o.promote_frac;
  cfg.optimism = o.optimism;
  cfg.min_survivors = o.min_survivors;
  cfg.cache_db = o.cache_db;

  const auto t0 = std::chrono::steady_clock::now();
  const auto res = core::search(space, cfg);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf("search: %zu candidates over %zu behaviours (%u jobs), %.2fs\n",
              space.candidates.size(), space.behaviours.size(),
              ThreadPool::resolve_jobs(o.jobs), elapsed);
  std::printf("rungs: %d run, %zu aborted by dominance, %zu evaluated at "
              "full depth\n",
              res.rungs_run, res.aborted, res.full_evaluations);
  if (!o.cache_db.empty()) {
    std::printf("cache: %zu hits / %zu misses (%s)\n", res.cache_hits,
                res.cache_misses, o.cache_db.c_str());
  }

  std::size_t front_size = 0;
  for (const auto& r : res.rows) front_size += r.pareto ? 1 : 0;
  std::printf("pareto front: %zu of %zu surviving rows\n\n", front_size,
              res.rows.size());
  TextTable t({"behaviour", "configuration", "P[mW]", "area[1e6 l^2]",
               "period"});
  for (const auto& r : res.rows) {
    if (!r.pareto) continue;
    t.add_row({r.behaviour, r.point.label, format_fixed(r.point.power.total, 2),
               format_fixed(r.point.area.total / 1e6, 2),
               std::to_string(r.point.stats.period)});
  }
  std::fputs(t.render().c_str(), stdout);

  if (!o.csv_file.empty()) {
    std::ofstream(o.csv_file) << core::search_to_csv(res, o.pareto_only);
    std::printf("wrote %s\n", o.csv_file.c_str());
  }
  if (!o.json_file.empty()) {
    std::ofstream(o.json_file) << core::search_to_json(res, o.pareto_only);
    std::printf("wrote %s\n", o.json_file.c_str());
  }
  return 0;
}

int cmd_emit(const CliOptions& o, bool verilog) {
  const Loaded l = load(o);
  const auto syn = core::synthesize(*l.graph, *l.schedule, synth_options(o));
  std::fputs(verilog ? vhdl::emit_verilog(*syn.design).c_str()
                     : vhdl::emit_vhdl(*syn.design).c_str(),
             stdout);
  return 0;
}

int cmd_dot(const CliOptions& o) {
  const Loaded l = load(o);
  std::fputs(dfg::to_dot(*l.schedule, o.style == "multi" ? o.clocks : 1).c_str(),
             stdout);
  return 0;
}

}  // namespace

namespace {

int dispatch(const CliOptions& o) {
  if (o.command == "list") return cmd_list();
  if (o.command == "synth") return cmd_synth(o);
  if (o.command == "table") return cmd_table(o);
  if (o.command == "emit") return cmd_emit(o, false);
  if (o.command == "emit-verilog") return cmd_emit(o, true);
  if (o.command == "dot") return cmd_dot(o);
  if (o.command == "explore") return cmd_explore(o);
  if (o.command == "search") return cmd_search(o);
  if (o.command == "merge") return cmd_merge(o);
  if (o.command == "serve") return cmd_serve(o);
  if (o.command == "query") return cmd_query(o);
  return usage();
}

/// Flush the requested observability sinks (after the command, whether it
/// succeeded or threw — a trace of a failing run is the most useful kind).
void flush_obs(const CliOptions& o) {
  if (!obs::enabled()) return;
  auto& reg = obs::Registry::instance();
  if (!o.trace_file.empty()) {
    std::ofstream(o.trace_file) << reg.chrome_trace_json();
    std::fprintf(stderr, "wrote %s (%zu spans)\n", o.trace_file.c_str(),
                 reg.num_spans());
  }
  if (!o.metrics_file.empty()) {
    std::ofstream(o.metrics_file) << reg.metrics_json();
    std::fprintf(stderr, "wrote %s\n", o.metrics_file.c_str());
  }
  if (o.progress) std::fputs(reg.summary().c_str(), stderr);
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions o;
  if (!parse_args(argc, argv, o)) return usage();
  if (o.obs_enabled()) obs::set_enabled(true);
  if (!o.fault_specs.empty()) {
    fault::set_enabled(true);
    for (const auto& spec : o.fault_specs) {
      if (!fault::arm_from_spec(spec)) {
        std::fprintf(stderr, "error: bad --fault-inject spec '%s'\n",
                     spec.c_str());
        return 2;
      }
    }
  }
  try {
    const int rc = dispatch(o);
    flush_obs(o);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    flush_obs(o);
    return 1;
  }
}
