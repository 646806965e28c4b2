// Unit tests for the design-space explorer and the experiment report
// writers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "core/explorer.hpp"
#include "dfg/interpreter.hpp"
#include "obs/obs.hpp"
#include "power/report.hpp"
#include "sim/equivalence.hpp"
#include "sim/stimulus.hpp"
#include "suite/benchmarks.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace mcrtl::core {
namespace {

ExplorationResult explore_small(const char* name, ExplorerConfig cfg = {}) {
  const auto b = suite::by_name(name, 4);
  cfg.computations = 300;
  return explore(*b.graph, *b.schedule, cfg);
}

TEST(ExplorerTest, EnumeratesExpectedPointCount) {
  ExplorerConfig cfg;
  cfg.max_clocks = 3;
  cfg.include_conventional = true;
  cfg.include_split = true;
  const auto r = explore_small("facet", cfg);
  // 2 conventional + n=1 integrated + (n=2,3) x (integrated, split).
  EXPECT_EQ(r.points.size(), 2u + 1u + 2u * 2u);
}

TEST(ExplorerTest, PointsSortedByPower) {
  const auto r = explore_small("hal");
  for (std::size_t i = 1; i < r.points.size(); ++i) {
    EXPECT_LE(r.points[i - 1].power.total, r.points[i].power.total);
  }
}

TEST(ExplorerTest, ParetoFrontierIsConsistent) {
  const auto r = explore_small("biquad");
  int pareto_count = 0;
  for (const auto& p : r.points) {
    pareto_count += p.pareto ? 1 : 0;
    if (!p.pareto) {
      // Some point must dominate it.
      const bool dominated = std::any_of(
          r.points.begin(), r.points.end(), [&](const ExplorationPoint& q) {
            return (q.power.total < p.power.total &&
                    q.area.total <= p.area.total) ||
                   (q.power.total <= p.power.total &&
                    q.area.total < p.area.total);
          });
      EXPECT_TRUE(dominated) << p.label;
    }
  }
  EXPECT_GE(pareto_count, 1);
  // The global power minimum is always on the frontier.
  EXPECT_TRUE(r.best_power().pareto);
}

TEST(ExplorerTest, BestUnderAreaBudget) {
  const auto r = explore_small("facet");
  // Unbounded budget: same as best_power.
  const auto unbounded = r.best_under_area(1e12);
  ASSERT_TRUE(unbounded.has_value());
  EXPECT_EQ(unbounded->label, r.best_power().label);
  // Impossible budget: nothing fits.
  EXPECT_FALSE(r.best_under_area(1.0).has_value());
  // A budget between min and max area excludes at least the largest point.
  double min_area = 1e18, max_area = 0;
  for (const auto& p : r.points) {
    min_area = std::min(min_area, p.area.total);
    max_area = std::max(max_area, p.area.total);
  }
  const auto mid = r.best_under_area((min_area + max_area) / 2);
  ASSERT_TRUE(mid.has_value());
  EXPECT_LE(mid->area.total, (min_area + max_area) / 2);
}

TEST(ExplorerTest, MultiClockWinsOnPaperBenchmarks) {
  // The paper's conclusion as an explorer property: the best point is a
  // multi-clock configuration, not a conventional one.
  for (const char* name : {"facet", "hal", "biquad", "bandpass"}) {
    const auto r = explore_small(name);
    EXPECT_EQ(r.best_power().options.style, DesignStyle::MultiClock) << name;
    EXPECT_GT(r.best_power().options.num_clocks, 1) << name;
  }
}

TEST(ExplorerTest, StreamsOneMatchesHistoricalScalarPath) {
  // streams == 1 must stay byte-identical to the pre-streams explorer: same
  // single EventDriven run, zero spread columns.
  ExplorerConfig base;
  ExplorerConfig one;
  one.streams = 1;
  const auto a = explore_small("facet", base);
  const auto b = explore_small("facet", one);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].label, b.points[i].label);
    EXPECT_EQ(a.points[i].power.total, b.points[i].power.total);
    EXPECT_EQ(b.points[i].power_stddev, 0.0);
    EXPECT_EQ(b.points[i].power_ci95, 0.0);
  }
}

TEST(ExplorerTest, SlicedSweepIsJobsDeterministic) {
  // A multi-stream sweep must not depend on worker scheduling: any --jobs
  // value yields bit-identical points, including the spread statistics.
  ExplorerConfig serial;
  serial.streams = 8;
  serial.jobs = 1;
  ExplorerConfig parallel = serial;
  parallel.jobs = 4;
  const auto a = explore_small("hal", serial);
  const auto b = explore_small("hal", parallel);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].label, b.points[i].label);
    EXPECT_EQ(a.points[i].power.total, b.points[i].power.total);
    EXPECT_EQ(a.points[i].power_stddev, b.points[i].power_stddev);
    EXPECT_EQ(a.points[i].power_ci95, b.points[i].power_ci95);
    EXPECT_EQ(a.points[i].area.total, b.points[i].area.total);
  }
}

TEST(ExplorerTest, SlicedSweepReportsSpread) {
  ExplorerConfig cfg;
  cfg.streams = 16;
  const auto r = explore_small("biquad", cfg);
  ASSERT_FALSE(r.points.empty());
  for (const auto& p : r.points) {
    // Independent stimulus streams produce genuinely different activity, so
    // a real spread; ci95 is tied to stddev by the fixed-n formula.
    EXPECT_GT(p.power_stddev, 0.0) << p.label;
    EXPECT_NEAR(p.power_ci95, 1.96 * p.power_stddev / std::sqrt(16.0),
                1e-12 * p.power_stddev)
        << p.label;
    EXPECT_GT(p.power.total, 0.0) << p.label;
  }
}

TEST(ExplorerTest, DffVariantIncludedOnDemand) {
  ExplorerConfig cfg;
  cfg.max_clocks = 2;
  cfg.include_dff_variant = true;
  const auto r = explore_small("facet", cfg);
  const bool any_dff = std::any_of(
      r.points.begin(), r.points.end(), [](const ExplorationPoint& p) {
        return p.label.find("dff") != std::string::npos;
      });
  EXPECT_TRUE(any_dff);
}

TEST(ReportTest, CsvHasHeaderAndRows) {
  const auto r = explore_small("facet");
  std::vector<power::ExperimentRecord> recs;
  for (const auto& p : r.points) {
    power::ExperimentRecord rec;
    rec.experiment = "explorer_facet";
    rec.design = p.label;
    rec.benchmark = "facet";
    rec.width = 4;
    rec.computations = 300;
    rec.power = p.power;
    rec.area = p.area;
    rec.stats = p.stats;
    recs.push_back(rec);
  }
  const std::string csv = power::to_csv(recs);
  // Header + one line per record.
  const auto lines = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(lines, static_cast<long>(recs.size()) + 1);
  EXPECT_NE(csv.find("power_total_mw"), std::string::npos);
  EXPECT_NE(csv.find("explorer_facet"), std::string::npos);
}

TEST(ReportTest, CsvEscapesCommas) {
  power::ExperimentRecord rec;
  rec.experiment = "e";
  rec.design = "a,b";
  rec.stats.alu_summary = "1(+), 2(*)";
  const std::string csv = power::to_csv({rec});
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"1(+), 2(*)\""), std::string::npos);
}

TEST(ReportTest, JsonIsStructurallySane) {
  power::ExperimentRecord rec;
  rec.experiment = "exp";
  rec.design = "3 Clocks";
  rec.benchmark = "hal";
  rec.power.total = 3.5;
  const std::string js = power::to_json({rec, rec});
  EXPECT_EQ(js.front(), '[');
  EXPECT_EQ(std::count(js.begin(), js.end(), '{'),
            std::count(js.begin(), js.end(), '}'));
  EXPECT_NE(js.find("\"power_mw\""), std::string::npos);
  EXPECT_NE(js.find("3.500000"), std::string::npos);
}

TEST(ReportTest, JsonEscapesSpecials) {
  power::ExperimentRecord rec;
  rec.design = "quote\" back\\slash\nnewline";
  const std::string js = power::to_json({rec});
  EXPECT_NE(js.find("quote\\\""), std::string::npos);
  EXPECT_NE(js.find("back\\\\slash"), std::string::npos);
  EXPECT_NE(js.find("\\n"), std::string::npos);
}

/// explore() with obs collection on; returns the sim.golden.computations
/// count it made (0 when the counter was never touched).
std::uint64_t golden_count(const dfg::Graph& g, const dfg::Schedule& sched,
                           const ExplorerConfig& cfg,
                           ExplorationResult* out = nullptr) {
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  std::uint64_t counted = 0;
  try {
    auto r = explore(g, sched, cfg);
    if (out) *out = std::move(r);
  } catch (...) {
    obs::set_enabled(false);
    throw;
  }
  obs::set_enabled(false);
  for (const auto& [name, n] : obs::Registry::instance().counters()) {
    if (name == "sim.golden.computations") counted = n;
  }
  obs::Registry::instance().reset();
  return counted;
}

TEST(ExplorerGoldenTest, GoldenModelRunsOncePerStreamPerSweep) {
  const auto b = suite::by_name("facet", 4);
  for (int streams : {1, 8}) {
    for (int jobs : {1, 3}) {
      ExplorerConfig cfg;
      cfg.computations = 120;
      cfg.streams = streams;
      cfg.jobs = jobs;
      ExplorationResult r;
      const auto counted = golden_count(*b.graph, *b.schedule, cfg, &r);
      ASSERT_GT(r.points.size(), 1u);
      // N computations x S streams, independent of the P points checked.
      EXPECT_EQ(counted, 120u * static_cast<unsigned>(streams))
          << "streams " << streams << " jobs " << jobs;
    }
  }
}

TEST(ExplorerGoldenTest, NoGoldenWorkWithoutEvaluation) {
  const auto b = suite::by_name("facet", 4);
  const std::string journal =
      std::string(::testing::TempDir()) + "golden_resume.journal";
  std::remove(journal.c_str());
  ExplorerConfig cfg;
  cfg.computations = 100;
  cfg.checkpoint_file = journal;
  ExplorationResult fresh, resumed;
  EXPECT_EQ(golden_count(*b.graph, *b.schedule, cfg, &fresh), 100u);
  // Every point comes from the journal: nothing is evaluated, so the
  // golden model never runs.
  EXPECT_EQ(golden_count(*b.graph, *b.schedule, cfg, &resumed), 0u);
  EXPECT_EQ(resumed.replayed_points, fresh.points.size());
  ASSERT_EQ(resumed.points.size(), fresh.points.size());
  for (std::size_t i = 0; i < fresh.points.size(); ++i) {
    EXPECT_EQ(resumed.points[i].label, fresh.points[i].label);
    EXPECT_EQ(resumed.points[i].power.total, fresh.points[i].power.total);
  }
  std::remove(journal.c_str());

  // A shard that owns no slot evaluates nothing either.
  ExplorerConfig shard;
  shard.computations = 100;
  shard.shard_count = static_cast<int>(num_configurations(shard)) + 1;
  shard.shard_index = shard.shard_count - 1;
  ExplorationResult empty;
  EXPECT_EQ(golden_count(*b.graph, *b.schedule, shard, &empty), 0u);
  EXPECT_TRUE(empty.points.empty());
}

// Frozen copy of the per-point check_outputs the golden table replaced: it
// re-runs the interpreter for every computation.
sim::EquivalenceReport reference_check_outputs(
    const dfg::Graph& graph, const sim::InputStream& stream,
    const std::vector<sim::OutputSample>& outputs,
    const std::string& style_name) {
  sim::EquivalenceReport rep;
  const auto out_order = graph.outputs();
  dfg::Interpreter interp(graph);
  for (std::size_t c = 0; c < stream.size(); ++c) {
    const auto golden = interp.run(stream[c]);
    for (std::size_t o = 0; o < out_order.size(); ++o) {
      if (golden.outputs[o] != outputs[c][o]) {
        rep.equivalent = false;
        rep.first_mismatch = c;
        rep.detail = str_format(
            "computation %zu, output '%s': golden=%llu rtl=%llu (style '%s')", c,
            graph.value(out_order[o]).name.c_str(),
            static_cast<unsigned long long>(golden.outputs[o]),
            static_cast<unsigned long long>(outputs[c][o]),
            style_name.c_str());
        rep.computations_checked = c + 1;
        return rep;
      }
    }
  }
  rep.computations_checked = stream.size();
  return rep;
}

void expect_same_report(const sim::EquivalenceReport& a,
                        const sim::EquivalenceReport& b) {
  EXPECT_EQ(a.equivalent, b.equivalent);
  EXPECT_EQ(a.computations_checked, b.computations_checked);
  EXPECT_EQ(a.first_mismatch, b.first_mismatch);
  EXPECT_EQ(a.detail, b.detail);
}

TEST(ExplorerGoldenTest, CheckOutputsOverloadsAgree) {
  const auto b = suite::by_name("bandpass", 8);
  SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 3;
  const auto syn = synthesize(*b.graph, *b.schedule, opts);
  Rng rng(77);
  const auto stream =
      sim::uniform_stream(rng, b.graph->inputs().size(), 90, 8);
  sim::Simulator simulator(*syn.design);
  const auto res =
      simulator.run(stream, b.graph->inputs(), b.graph->outputs());
  const auto table = dfg::Interpreter(*b.graph).golden_outputs(stream);
  const std::string style = syn.design->style_name;

  auto check_all = [&](const std::vector<sim::OutputSample>& outs) {
    const auto ref = reference_check_outputs(*b.graph, stream, outs, style);
    expect_same_report(sim::check_outputs(*b.graph, stream, outs, style), ref);
    expect_same_report(sim::check_outputs(*b.graph, table, outs, style), ref);
    return ref;
  };
  EXPECT_TRUE(check_all(res.outputs).equivalent);
  EXPECT_EQ(check_all(res.outputs).computations_checked, stream.size());

  const std::size_t last_out = b.graph->outputs().size() - 1;
  for (std::size_t c : {std::size_t{0}, stream.size() / 2, stream.size() - 1}) {
    for (std::size_t o : {std::size_t{0}, last_out}) {
      auto outs = res.outputs;
      outs[c][o] ^= 1;
      const auto rep = check_all(outs);
      EXPECT_FALSE(rep.equivalent);
      EXPECT_EQ(rep.first_mismatch, c);
      EXPECT_EQ(rep.computations_checked, c + 1);
    }
  }
}

TEST(ExplorerGoldenTest, RejectsDesignDivergingOnOneStream) {
  // Every stream is checked against its own golden table: a fault on one
  // computation of one stream — whichever stream — fails the point, and
  // the report names that stream and computation.
  ExplorerConfig cfg;
  cfg.computations = 60;
  cfg.max_clocks = 2;
  cfg.streams = 8;
  const auto b = suite::by_name("hal", 4);
  for (std::uint32_t stream : {0u, 5u, 7u}) {
    for (int jobs : {1, 4}) {
      cfg.jobs = jobs;
      sim::testing::ScopedSlicedOutputFault fault(stream, 41);
      try {
        explore(*b.graph, *b.schedule, cfg);
        ADD_FAILURE() << "divergent stream " << stream << " accepted";
      } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(str_format("explorer produced a non-equivalent "
                                       "design (stream %u): computation 41, "
                                       "output",
                                       stream)),
                  std::string::npos)
            << what;
      }
    }
  }
  // The fault is scoped: the same sweep passes once it is gone.
  EXPECT_NO_THROW(explore(*b.graph, *b.schedule, cfg));
}

}  // namespace
}  // namespace mcrtl::core
