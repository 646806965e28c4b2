#include "table_common.hpp"

#include <cstdio>

#include "sim/equivalence.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace mcrtl::bench {

Row run_style(const suite::Benchmark& b, const core::SynthesisOptions& opts,
              std::size_t computations, std::uint64_t seed) {
  core::Synthesized syn = core::synthesize(*b.graph, *b.schedule, opts);

  Rng rng(seed);
  const auto stream = sim::uniform_stream(rng, b.graph->inputs().size(),
                                          computations, b.graph->width());

  // One simulation: its sampled outputs are checked, its Activity is
  // measured. A style whose outputs are wrong must never make it into a
  // table.
  sim::Simulator simulator(*syn.design);
  const auto res =
      simulator.run(stream, b.graph->inputs(), b.graph->outputs());
  const auto rep = sim::check_outputs(*b.graph, stream, res.outputs,
                                      syn.design->style_name);
  MCRTL_CHECK_MSG(rep.equivalent, "table row not equivalent: " << rep.detail);

  const power::TechLibrary tech = power::TechLibrary::cmos08();
  Row row;
  row.label = syn.design->style_name;
  row.breakdown = power::estimate_power(*syn.design, res.activity, tech);
  row.power_mw = row.breakdown.total;
  row.area_lambda2 = power::estimate_area(*syn.design, tech).total;
  row.alus = syn.design->stats.alu_summary;
  row.mem_cells = syn.design->stats.num_memory_cells;
  row.mux_inputs = syn.design->stats.num_mux_inputs;
  return row;
}

std::vector<Row> run_table(const TableConfig& cfg) {
  const suite::Benchmark b = suite::by_name(cfg.benchmark, cfg.width);

  struct StyleSpec {
    core::DesignStyle style;
    int clocks;
  };
  const StyleSpec specs[] = {
      {core::DesignStyle::ConventionalNonGated, 1},
      {core::DesignStyle::ConventionalGated, 1},
      {core::DesignStyle::MultiClock, 1},
      {core::DesignStyle::MultiClock, 2},
      {core::DesignStyle::MultiClock, 3},
  };
  std::vector<Row> rows;
  for (const auto& spec : specs) {
    core::SynthesisOptions opts;
    opts.style = spec.style;
    opts.num_clocks = spec.clocks;
    rows.push_back(run_style(b, opts, cfg.computations, cfg.seed));
  }
  return rows;
}

std::string print_table(const TableConfig& cfg, const std::vector<Row>& rows) {
  std::string out;
  out += "=== " + cfg.title + " ===\n";
  out += str_format("benchmark '%s', %u-bit datapath, %zu random computations, "
                    "V=4.65V\n\n",
                    cfg.benchmark.c_str(), cfg.width, cfg.computations);

  TextTable t({"Design", "Power[mW]", "Area[1e6 l^2]", "ALUs", "Mem", "MuxIn",
               "comb", "stor", "clk", "ctrl"});
  for (const auto& r : rows) {
    t.add_row({r.label, format_fixed(r.power_mw, 2),
               format_fixed(r.area_lambda2 / 1e6, 2), r.alus,
               std::to_string(r.mem_cells), std::to_string(r.mux_inputs),
               format_fixed(r.breakdown.combinational, 2),
               format_fixed(r.breakdown.storage, 2),
               format_fixed(r.breakdown.clock_tree, 2),
               format_fixed(r.breakdown.control, 2)});
  }
  out += t.render();

  if (!cfg.paper.empty() && cfg.paper.size() == rows.size()) {
    out += "\npaper reported (COMPASS 0.8um, absolute numbers not expected to "
           "match):\n";
    TextTable p({"Design", "Power[mW]", "Area[1e6 l^2]"});
    for (std::size_t i = 0; i < rows.size(); ++i) {
      p.add_row({rows[i].label, format_fixed(cfg.paper[i].power_mw, 2),
                 format_fixed(cfg.paper[i].area_lambda2 / 1e6, 2)});
    }
    out += p.render();

    const double ours =
        100.0 * (rows[1].power_mw - rows[4].power_mw) / rows[1].power_mw;
    const double papers = 100.0 * (cfg.paper[1].power_mw - cfg.paper[4].power_mw) /
                          cfg.paper[1].power_mw;
    const double area_ours =
        100.0 * (rows[4].area_lambda2 - rows[1].area_lambda2) /
        rows[1].area_lambda2;
    const double area_papers =
        100.0 * (cfg.paper[4].area_lambda2 - cfg.paper[1].area_lambda2) /
        cfg.paper[1].area_lambda2;
    out += str_format(
        "\n3-clock vs gated baseline: power %+.1f%% (paper %+.1f%%), "
        "area %+.1f%% (paper %+.1f%%)\n",
        -ours, -papers, area_ours, area_papers);
  }
  std::fputs(out.c_str(), stdout);
  return out;
}

}  // namespace mcrtl::bench
