// core::search — the guided design-space search.
//
// The load-bearing properties:
//  * determinism: the full result (rows, front, pruned set) is
//    bit-identical for any jobs value and for cached-vs-fresh runs;
//  * soundness: a search row is bit-identical to the exhaustive explorer's
//    row for the same configuration, and the search's Pareto front equals
//    the front of an exhaustive full-depth sweep of the same grid;
//  * prefix runs: a budgeted simulation is a bit-exact prefix of the
//    unbudgeted one;
//  * the cache: round-trips points losslessly, tolerates corruption, and
//    never replays a pruning decision into a different sweep.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/record.hpp"
#include "core/search.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "suite/benchmarks.hpp"
#include "util/rng.hpp"

using namespace mcrtl;

namespace {

/// Temp-file path unique to the test binary run.
std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "mcrtl_search_" + name;
}

struct Grid {
  std::vector<suite::Benchmark> benches;
  core::SearchSpace space;
};

/// A small two-behaviour grid crossed with the full variant axis — big
/// enough to exercise pruning, small enough for a unit test.
Grid small_grid() {
  Grid g;
  g.benches.push_back(suite::facet(3));
  g.benches.push_back(suite::motivating(4));
  g.space.behaviours.push_back(core::SearchBehaviour{
      "facet/w3", g.benches[0].graph.get(), g.benches[0].schedule.get(),
      {}});
  g.space.behaviours.push_back(core::SearchBehaviour{
      "motivating/w4", g.benches[1].graph.get(), g.benches[1].schedule.get(),
      {}});
  core::cross_variants(g.space, core::search_variants(3));
  return g;
}

core::SearchConfig small_cfg() {
  core::SearchConfig cfg;
  cfg.computations = 300;
  cfg.seed = 11;
  cfg.budget_rungs = 2;
  cfg.promote_fraction = 0.4;
  cfg.optimism = 0.85;
  cfg.min_survivors = 3;
  return cfg;
}

/// Everything the determinism contract promises, flattened to one string
/// with full double precision (CSV already rounds; the contract is
/// bit-identity).
std::string result_signature(const core::SearchResult& r) {
  std::string s;
  for (const auto& row : r.rows) {
    s += row.behaviour + '|' + row.point.label + '|' +
         core::record::encode_double(row.point.power.total) + '|' +
         core::record::encode_double(row.point.power_stddev) + '|' +
         core::record::encode_double(row.point.area.total) + '|' +
         std::to_string(row.point.stats.period) + '|' +
         (row.pareto ? "P" : "-") + '|' + row.dominated_by + '\n';
  }
  s += "--pruned--\n";
  for (const auto& p : r.pruned) {
    s += p.behaviour + '|' + p.label + '|' + std::to_string(p.rung) + '|' +
         p.dominated_by + '\n';
  }
  return s;
}

}  // namespace

// ---- prefix runs ------------------------------------------------------------

TEST(SearchPrefix, BudgetedRunIsBitExactPrefixOfFullRun) {
  const auto b = suite::facet(4);
  core::SynthesisOptions opts;
  opts.style = core::DesignStyle::MultiClock;
  opts.num_clocks = 2;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);

  Rng rng(7);
  const auto stream = sim::uniform_stream(rng, b.graph->inputs().size(), 64,
                                          b.graph->width());

  sim::Simulator full(*syn.design);
  const auto full_res =
      full.run(stream, b.graph->inputs(), b.graph->outputs());

  sim::Simulator budgeted(*syn.design);
  budgeted.set_computation_budget(16);
  const auto pre =
      budgeted.run(stream, b.graph->inputs(), b.graph->outputs());

  ASSERT_EQ(pre.outputs.size(), 16u);
  for (std::size_t i = 0; i < pre.outputs.size(); ++i) {
    EXPECT_EQ(pre.outputs[i], full_res.outputs[i]) << "computation " << i;
  }
  // A budget larger than the stream is a plain full run.
  sim::Simulator large(*syn.design);
  large.set_computation_budget(1000);
  const auto all = large.run(stream, b.graph->inputs(), b.graph->outputs());
  EXPECT_EQ(all.outputs, full_res.outputs);
  EXPECT_EQ(all.activity.steps, full_res.activity.steps);
}

// ---- determinism ------------------------------------------------------------

TEST(Search, ResultIsIdenticalForAnyJobsValue) {
  const Grid g = small_grid();
  std::string base;
  for (const int jobs : {1, 2, 8}) {
    auto cfg = small_cfg();
    cfg.jobs = jobs;
    const auto r = core::search(g.space, cfg);
    const std::string sig = result_signature(r);
    if (base.empty()) {
      base = sig;
      EXPECT_FALSE(r.rows.empty());
      EXPECT_GT(r.aborted, 0u) << "grid too easy: nothing was pruned";
    } else {
      EXPECT_EQ(sig, base) << "jobs=" << jobs << " changed the result";
    }
  }
}

TEST(Search, CachedRerunIsIdenticalAndFullyHit) {
  const Grid g = small_grid();
  const std::string db = tmp_path("rerun.db");
  std::remove(db.c_str());

  auto cfg = small_cfg();
  cfg.cache_db = db;
  const auto fresh = core::search(g.space, cfg);
  EXPECT_EQ(fresh.cache_hits, 0u);
  EXPECT_GT(fresh.cache_misses, 0u);

  const auto cached = core::search(g.space, cfg);
  EXPECT_EQ(cached.cache_misses, 0u) << "second run must be 100% cache hits";
  EXPECT_EQ(cached.cache_hits, fresh.cache_misses);
  EXPECT_EQ(cached.full_evaluations, 0u);
  EXPECT_EQ(cached.rungs_run, 0);
  EXPECT_EQ(result_signature(cached), result_signature(fresh));
  // The deterministic CSV/JSON reports are byte-identical too.
  EXPECT_EQ(core::search_to_csv(cached, false),
            core::search_to_csv(fresh, false));
  EXPECT_EQ(core::search_to_json(cached, true),
            core::search_to_json(fresh, true));
  std::remove(db.c_str());
}

// ---- soundness --------------------------------------------------------------

TEST(Search, RowsAreBitIdenticalToExhaustiveAndFrontIsExact) {
  const Grid g = small_grid();
  auto cfg = small_cfg();
  const auto guided = core::search(g.space, cfg);

  // The exhaustive reference: the same grid with no prefix stage. Every
  // candidate is evaluated at full depth through the same explorer
  // pipeline.
  auto exhaustive_cfg = cfg;
  exhaustive_cfg.budget_rungs = 0;
  const auto exhaustive = core::search(g.space, exhaustive_cfg);
  EXPECT_EQ(exhaustive.aborted, 0u);
  EXPECT_EQ(exhaustive.rows.size(), g.space.candidates.size());

  // Exhaustive front (per behaviour, 3 objectives), by label.
  std::set<std::string> exhaustive_front;
  std::map<std::string, const core::SearchRow*> exhaustive_by_label;
  for (const auto& row : exhaustive.rows) {
    exhaustive_by_label[row.point.label] = &row;
    if (row.pareto) exhaustive_front.insert(row.point.label);
  }
  std::set<std::string> guided_front;
  for (const auto& row : guided.rows) {
    if (row.pareto) guided_front.insert(row.point.label);
  }
  EXPECT_EQ(guided_front, exhaustive_front);

  // Every surviving guided row is bit-identical to the exhaustive row for
  // the same configuration (same pipeline, same stream, same slotting).
  for (const auto& row : guided.rows) {
    const auto it = exhaustive_by_label.find(row.point.label);
    ASSERT_NE(it, exhaustive_by_label.end());
    const auto& ex = it->second->point;
    EXPECT_EQ(core::record::encode_point_fields(row.point),
              core::record::encode_point_fields(ex))
        << row.point.label;
  }

  // And nothing the search pruned was on the exhaustive front.
  for (const auto& p : guided.pruned) {
    EXPECT_EQ(exhaustive_front.count(p.label), 0u)
        << "pruned a front point: " << p.label;
  }
}

// ---- the cache --------------------------------------------------------------

TEST(ResultCache, RoundTripsPointsLosslessly) {
  core::ResultCache cache;
  core::ExplorationPoint p;
  p.label = "unit label with spaces";
  p.power.total = 1.0 / 3.0;  // not representable in decimal
  p.power.combinational = 0.1;
  p.power_stddev = 1e-17;
  p.area.total = 123456.0;
  p.stats.period = 6;
  p.stats.num_clocks = 3;
  p.hotspot = "fu_mul0";
  p.hotspot_share = 2.0 / 3.0;
  p.crest = 1.5;
  cache.put_row(0xdeadbeefULL, p);
  cache.put_pruned(42, 43, core::ResultCache::PrunedMark{1, "by-label"});

  const std::string db = tmp_path("roundtrip.db");
  ASSERT_TRUE(cache.save(db));

  core::ResultCache loaded;
  EXPECT_EQ(loaded.load(db), 0u);
  const core::ExplorationPoint* q = loaded.find_row(0xdeadbeefULL);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(core::record::encode_point_fields(*q),
            core::record::encode_point_fields(p));
  EXPECT_EQ(q->label, p.label);
  const auto* m = loaded.find_pruned(42, 43);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->rung, 1);
  EXPECT_EQ(m->dominated_by, "by-label");
  EXPECT_EQ(loaded.find_pruned(41, 43), nullptr);
  EXPECT_EQ(loaded.find_row(1), nullptr);
  std::remove(db.c_str());
}

TEST(ResultCache, CorruptLinesAreSkippedNotTrusted) {
  const Grid g = small_grid();
  const std::string db = tmp_path("corrupt.db");
  std::remove(db.c_str());
  auto cfg = small_cfg();
  cfg.cache_db = db;
  const auto fresh = core::search(g.space, cfg);

  // Flip bytes in the middle of the DB: damaged records must be dropped
  // (CRC), not replayed as measurements.
  std::string content;
  {
    std::ifstream in(db, std::ios::binary);
    content.assign((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  }
  ASSERT_GT(content.size(), 400u);
  for (std::size_t pos = content.size() / 2, k = 0; k < 20; ++k) {
    if (content[pos + k] != '\n') content[pos + k] = '#';
  }
  {
    std::ofstream out(db, std::ios::binary | std::ios::trunc);
    out << content;
  }

  core::ResultCache damaged;
  EXPECT_GT(damaged.load(db), 0u);

  // The search still completes and still produces the identical result —
  // the damaged records simply become cache misses.
  const auto repaired = core::search(g.space, cfg);
  EXPECT_GT(repaired.cache_misses, 0u);
  EXPECT_EQ(result_signature(repaired), result_signature(fresh));
  std::remove(db.c_str());
}

TEST(ResultCache, MissingAndForeignFilesAreColdCaches) {
  core::ResultCache cache;
  EXPECT_EQ(cache.load(tmp_path("does_not_exist.db")), 0u);
  EXPECT_EQ(cache.num_rows(), 0u);

  const std::string db = tmp_path("foreign.db");
  std::ofstream(db) << "some other format v9\nr garbage\n";
  core::ResultCache foreign;
  EXPECT_EQ(foreign.load(db), 1u);  // header mismatch, file ignored
  EXPECT_EQ(foreign.num_rows(), 0u);
  std::remove(db.c_str());
}

namespace {

core::ExplorationPoint cache_point(std::uint64_t k, double bias) {
  core::ExplorationPoint p;
  p.label = "pt" + std::to_string(k);
  p.power.total = 1.0 / 3.0 + static_cast<double>(k) + bias;
  p.area.total = 100.0 + static_cast<double>(k);
  p.stats.period = 4;
  p.stats.num_clocks = 2;
  return p;
}

std::string slurp_db(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

}  // namespace

TEST(ResultCache, CompactionDropsSupersededAndCorruptAndReplaysIdentically) {
  const std::string db = tmp_path("compact.db");
  std::remove(db.c_str());

  // An append-heavy history: stale payloads for keys 1..3, then current
  // ones (later wins), then a corrupt line.
  core::ResultCache stale;
  for (std::uint64_t k = 1; k <= 3; ++k) stale.put_row(k, cache_point(k, 99.0));
  ASSERT_TRUE(stale.save(db));
  core::ResultCache current;
  for (std::uint64_t k = 1; k <= 3; ++k) {
    current.put_row(k, cache_point(k, 0.0));
  }
  current.put_pruned(7, 8, core::ResultCache::PrunedMark{2, "winner"});
  const std::string tmp2 = tmp_path("compact2.db");
  ASSERT_TRUE(current.save(tmp2));
  const std::string second = slurp_db(tmp2);
  std::remove(tmp2.c_str());
  {
    std::ofstream out(db, std::ios::binary | std::ios::app);
    out << second.substr(second.find('\n') + 1);  // records, not the header
    out << "r this line is garbage\n";
  }

  core::ResultCache cache;
  const auto stats = cache.load_and_compact(db);
  EXPECT_EQ(stats.bad_lines, 1u);
  EXPECT_EQ(stats.superseded, 3u);
  EXPECT_TRUE(stats.rewritten);
  EXPECT_EQ(cache.num_rows(), 3u);

  // The rewritten DB replays identically: same keys, bit-identical
  // payloads, nothing stale or corrupt left behind.
  core::ResultCache replay;
  EXPECT_EQ(replay.load(db), 0u);
  EXPECT_EQ(replay.num_rows(), 3u);
  EXPECT_EQ(replay.num_pruned(), 1u);
  for (std::uint64_t k = 1; k <= 3; ++k) {
    const auto* p = replay.find_row(k);
    ASSERT_NE(p, nullptr) << k;
    EXPECT_EQ(core::record::encode_point_fields(*p),
              core::record::encode_point_fields(cache_point(k, 0.0)))
        << k;
  }
  ASSERT_NE(replay.find_pruned(7, 8), nullptr);

  // A clean, in-bounds DB is left untouched byte-for-byte.
  const std::string before = slurp_db(db);
  core::ResultCache again;
  const auto stats2 = again.load_and_compact(db);
  EXPECT_FALSE(stats2.rewritten);
  EXPECT_EQ(stats2.bad_lines, 0u);
  EXPECT_EQ(stats2.superseded, 0u);
  EXPECT_EQ(before, slurp_db(db));
  std::remove(db.c_str());
}

TEST(ResultCache, CompactionBoundsTheDatabaseSize) {
  const std::string db = tmp_path("compact_bound.db");
  std::remove(db.c_str());
  core::ResultCache big;
  for (std::uint64_t k = 1; k <= 6; ++k) big.put_row(k, cache_point(k, 0.0));
  for (std::uint64_t s = 1; s <= 4; ++s) {
    big.put_pruned(s, 100 + s, core::ResultCache::PrunedMark{1, "x"});
  }
  ASSERT_TRUE(big.save(db));

  core::ResultCache cache;
  const auto stats = cache.load_and_compact(db, /*max_rows=*/4,
                                            /*max_pruned=*/2);
  EXPECT_EQ(stats.evicted_rows, 2u);
  EXPECT_EQ(stats.evicted_marks, 2u);
  EXPECT_TRUE(stats.rewritten);
  EXPECT_EQ(cache.num_rows(), 4u);
  EXPECT_EQ(cache.num_pruned(), 2u);
  // Deterministic victims: the numerically largest keys go first.
  EXPECT_NE(cache.find_row(1), nullptr);
  EXPECT_NE(cache.find_row(4), nullptr);
  EXPECT_EQ(cache.find_row(5), nullptr);
  EXPECT_EQ(cache.find_row(6), nullptr);

  core::ResultCache replay;
  EXPECT_EQ(replay.load(db), 0u);
  EXPECT_EQ(replay.num_rows(), 4u);
  EXPECT_EQ(replay.num_pruned(), 2u);
  std::remove(db.c_str());
}

TEST(ResultCache, CompactionNeverRewritesAnAllCorruptFile) {
  // A file that parses to nothing is worth more as evidence than as an
  // empty cache: compaction must leave it alone.
  const std::string db = tmp_path("compact_foreign.db");
  std::ofstream(db) << "some other format v9\nr garbage\n";
  const std::string before = slurp_db(db);
  core::ResultCache cache;
  const auto stats = cache.load_and_compact(db);
  EXPECT_FALSE(stats.rewritten);
  EXPECT_EQ(cache.num_rows(), 0u);
  EXPECT_EQ(before, slurp_db(db));
  std::remove(db.c_str());
}

TEST(Search, PrunedMarkersDoNotLeakIntoADifferentSweep) {
  const Grid g = small_grid();
  const std::string db = tmp_path("sweepfp.db");
  std::remove(db.c_str());

  auto cfg = small_cfg();
  cfg.cache_db = db;
  const auto first = core::search(g.space, cfg);
  ASSERT_GT(first.aborted, 0u);

  // Same grid, different pruning knobs => different sweep fingerprint. The
  // full rows still hit (they are measurement-keyed), but every pruning
  // decision must be re-derived, not replayed.
  auto other = cfg;
  other.promote_fraction = 0.8;
  const auto second = core::search(g.space, other);
  EXPECT_NE(second.sweep_fingerprint, first.sweep_fingerprint);
  EXPECT_GT(second.cache_hits, 0u) << "full rows are cross-sweep reusable";
  for (const auto& p : second.pruned) {
    EXPECT_FALSE(p.from_cache)
        << p.label << " replayed a pruning decision across sweeps";
  }
  std::remove(db.c_str());
}

// ---- dedupe / front annotation ----------------------------------------------

TEST(Search, DuplicateCandidatesEvaluateOnceAndFanOut) {
  Grid g;
  g.benches.push_back(suite::motivating(4));
  g.space.behaviours.push_back(core::SearchBehaviour{
      "motivating/w4", g.benches[0].graph.get(), g.benches[0].schedule.get(),
      {}});
  core::SynthesisOptions opts;
  opts.style = core::DesignStyle::MultiClock;
  opts.num_clocks = 2;
  g.space.candidates.push_back(core::SearchCandidate{0, opts, "first"});
  g.space.candidates.push_back(core::SearchCandidate{0, opts, "second"});

  core::SearchConfig cfg;
  cfg.computations = 200;
  cfg.budget_rungs = 0;
  const auto r = core::search(g.space, cfg);
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.full_evaluations, 1u) << "the duplicate must not re-simulate";
  // Identical measurements under each candidate's own label, and both on
  // the front (neither weakly dominates the other).
  EXPECT_EQ(r.rows[0].point.power.total, r.rows[1].point.power.total);
  EXPECT_NE(r.rows[0].point.label, r.rows[1].point.label);
  EXPECT_TRUE(r.rows[0].pareto);
  EXPECT_TRUE(r.rows[1].pareto);
}

TEST(ParetoFrontTest, AnnotationMatchesBruteForce) {
  const Grid g = small_grid();
  auto cfg = small_cfg();
  cfg.budget_rungs = 0;
  auto r = core::search(g.space, cfg);
  const auto front = core::ParetoFront::compute(r.rows);
  ASSERT_FALSE(front.indices.empty());
  for (std::size_t i = 0; i < r.rows.size(); ++i) {
    bool dominated = false;
    std::string by;
    for (const auto& q : r.rows) {
      if (q.behaviour != r.rows[i].behaviour) continue;
      if (core::dominates(core::point_metrics(q.point),
                          core::point_metrics(r.rows[i].point))) {
        dominated = true;
        if (by.empty()) by = q.point.label;
      }
    }
    EXPECT_EQ(r.rows[i].pareto, !dominated) << r.rows[i].point.label;
    EXPECT_EQ(r.rows[i].dominated_by.empty(), !dominated);
    // dominated_by names a real dominator of the same behaviour.
    if (dominated) {
      bool found = false;
      for (const auto& q : r.rows) {
        if (q.point.label == r.rows[i].dominated_by &&
            q.behaviour == r.rows[i].behaviour) {
          found = core::dominates(core::point_metrics(q.point),
                                  core::point_metrics(r.rows[i].point));
        }
      }
      EXPECT_TRUE(found) << r.rows[i].dominated_by;
    }
  }
}

// ---- dominance groups -------------------------------------------------------

TEST(Search, GroupedSchedulesCompeteOnOneExactFront) {
  // Two schedules of the same behaviour (facet/w4) — the reference
  // schedule and a resource-limited list schedule — placed in one
  // dominance group: they are alternative implementations of the same
  // function, so they share a single front and may abort each other's
  // candidates. The front must still be exactly the exhaustive one.
  auto bench = suite::facet(4);
  dfg::ResourceLimits rl;
  rl.default_limit = 1;
  const auto lim = dfg::schedule_list(*bench.graph, rl);

  core::SearchSpace space;
  space.behaviours.push_back(core::SearchBehaviour{
      "facet/w4/ref", bench.graph.get(), bench.schedule.get(), "facet/w4"});
  space.behaviours.push_back(core::SearchBehaviour{
      "facet/w4/lim1", bench.graph.get(), &lim, "facet/w4"});
  core::cross_variants(space, core::search_variants(3));

  const auto cfg = small_cfg();
  const auto guided = core::search(space, cfg);
  auto exh_cfg = cfg;
  exh_cfg.budget_rungs = 0;
  const auto exhaustive = core::search(space, exh_cfg);

  EXPECT_GT(guided.aborted, 0u);
  EXPECT_LT(guided.rows.size(), exhaustive.rows.size());

  std::map<std::string, const core::SearchRow*> exh;
  std::set<std::string> exh_front;
  for (const auto& r : exhaustive.rows) {
    EXPECT_EQ(r.group, "facet/w4");
    exh.emplace(r.point.label, &r);
    if (r.pareto) exh_front.insert(r.point.label);
  }
  std::set<std::string> guided_front;
  for (const auto& r : guided.rows) {
    EXPECT_EQ(r.group, "facet/w4");
    const auto it = exh.find(r.point.label);
    ASSERT_NE(it, exh.end()) << r.point.label;
    EXPECT_EQ(core::record::encode_point_fields(r.point),
              core::record::encode_point_fields(it->second->point))
        << r.point.label;
    EXPECT_EQ(r.pareto, it->second->pareto) << r.point.label;
    EXPECT_EQ(r.dominated_by, it->second->dominated_by) << r.point.label;
    if (r.pareto) guided_front.insert(r.point.label);
  }
  EXPECT_EQ(guided_front, exh_front);
  for (const auto& p : guided.pruned) {
    EXPECT_EQ(exh_front.count(p.label), 0u) << p.label;
  }

  // The group is doing real cross-schedule work: some row of one schedule
  // is dominated by a row of the other.
  bool cross = false;
  for (const auto& r : exhaustive.rows) {
    if (r.dominated_by.empty()) continue;
    const auto it = exh.find(r.dominated_by);
    ASSERT_NE(it, exh.end()) << r.dominated_by;
    if (it->second->behaviour != r.behaviour) cross = true;
  }
  EXPECT_TRUE(cross);
}
