// Tests of the benchmark's own code: percentiles, span self time, seeded
// inputs, metric names and the failure accounting of its checks.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "dfg/textio.hpp"
#include "layers.hpp"
#include "stats.hpp"
#include "suite/benchmarks.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

SpanRec span(std::uint64_t id, std::uint64_t parent, std::uint64_t start,
             std::uint64_t end, const char* name) {
  SpanRec s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start * 1000000;
  s.end_ns = end * 1000000;
  s.name = name;
  return s;
}

}  // namespace

TEST(Percentile, TailIsHighestWithTenBeyond) {
  const Tail t = tail_percentile(one_to(100));
  EXPECT_EQ(t.pct, 90);
  EXPECT_EQ(t.value, 90.0);
  EXPECT_EQ(t.samples, 100u);
  EXPECT_EQ(t.beyond, 10u);

  const Tail big = tail_percentile(one_to(1000));
  EXPECT_EQ(big.pct, 99);
  EXPECT_EQ(big.beyond, 10u);

  const Tail odd = tail_percentile(one_to(48));
  EXPECT_EQ(odd.pct, 79);  // rank ceil(37.92) = 38 leaves 10 above
  EXPECT_EQ(odd.beyond, 10u);
  EXPECT_EQ(odd.value, 38.0);
}

TEST(Percentile, FewSamplesFallBackToMedianAndSaySo) {
  const Tail t = tail_percentile(one_to(15));
  EXPECT_EQ(t.pct, 50);
  EXPECT_EQ(t.samples, 15u);
  EXPECT_EQ(t.beyond, 7u);  // fewer than ten: reported, not hidden
  EXPECT_EQ(tail_percentile({}).samples, 0u);
}

TEST(Percentile, NearestRankMedian) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.0);
  EXPECT_EQ(quantile({5, 1, 4, 2, 3}, 1.0), 5.0);
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(mean({1, 2, 6}), 3.0);
  EXPECT_EQ(mean({}), 0.0);
}

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  const std::vector<SpanRec> spans = {
      span(4, 2, 15, 25, "grandchild"), span(2, 1, 10, 40, "a"),
      span(3, 1, 50, 70, "b"), span(1, 0, 0, 100, "root")};
  const SelfTimes st = self_times(spans);
  EXPECT_DOUBLE_EQ(st.self_ms.at("root"), 50.0);
  EXPECT_DOUBLE_EQ(st.self_ms.at("a"), 20.0);
  EXPECT_DOUBLE_EQ(st.self_ms.at("b"), 20.0);
  EXPECT_DOUBLE_EQ(st.self_ms.at("grandchild"), 10.0);
  EXPECT_DOUBLE_EQ(st.total_ms.at("root"), 100.0);
  EXPECT_EQ(st.violations, 0u);
}

TEST(SelfTime, SameNameSpansAddUp) {
  const std::vector<SpanRec> spans = {span(2, 1, 0, 10, "x"),
                                      span(3, 1, 20, 25, "x"),
                                      span(1, 0, 0, 30, "root")};
  const SelfTimes st = self_times(spans);
  EXPECT_DOUBLE_EQ(st.self_ms.at("x"), 15.0);
  EXPECT_EQ(st.calls.at("x"), 2u);
  EXPECT_DOUBLE_EQ(st.self_ms.at("root"), 15.0);
}

TEST(SelfTime, ChildrenLongerThanParentAreAViolation) {
  const std::vector<SpanRec> spans = {span(2, 1, 0, 8, "a"),
                                      span(3, 1, 2, 9, "b"),
                                      span(1, 0, 0, 10, "root")};
  const SelfTimes st = self_times(spans);
  EXPECT_EQ(st.violations, 1u);
  EXPECT_DOUBLE_EQ(st.self_ms.at("root"), 0.0);
}

TEST(Tracer, RecordsParentsRequestsAndNestedSelfTime) {
  Tracer t(true);
  {
    Tracer::Scope outer(t, "outer", 7);
    { Tracer::Scope inner(t, "inner", 7); }
  }
  { Tracer::Scope other(t, "other", 8); }
  const auto spans = t.spans_since(0);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[2].parent, 0u);
  EXPECT_EQ(spans[0].request, 7u);
  EXPECT_EQ(spans[2].request, 8u);
  EXPECT_EQ(self_times(spans).violations, 0u);
  EXPECT_EQ(t.spans_since(2).size(), 1u);
  const std::string json = t.chrome_json("{\"seed\": 1}");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\": " + std::to_string(spans[1].id)),
            std::string::npos);

  Tracer off(false);
  { Tracer::Scope s(off, "ignored", 1); }
  EXPECT_EQ(off.mark(), 0u);
}

TEST(Inputs, SameSeedSameGraphsDifferentSeedDifferentGraphs) {
  auto text = [](const std::vector<Sweep>& sweeps) {
    std::string out;
    for (const auto& s : sweeps) {
      out += mcrtl::dfg::serialize_dfg(*s.graph, s.sched.get());
      out += std::to_string(s.cfg.seed);
    }
    return out;
  };
  const auto a = large_sweeps(11, 1);
  ASSERT_EQ(a.size(), 16u);
  EXPECT_EQ(a.front().graph->num_nodes(), 128u);
  EXPECT_EQ(a.back().graph->num_nodes(), 1024u);
  EXPECT_EQ(text(a), text(large_sweeps(11, 4)));
  EXPECT_NE(text(a), text(large_sweeps(12, 1)));

  const auto s = suite_sweeps(11, 1);
  ASSERT_EQ(s.size(), 16u);
  EXPECT_EQ(mcrtl::core::num_configurations(s.front().cfg), 15u);
  EXPECT_EQ(text(s), text(suite_sweeps(11, 1)));
  EXPECT_NE(text(s), text(suite_sweeps(12, 1)));  // stimulus seeds differ
}

TEST(Inputs, SameSeedSameRequestsDifferentSeedDifferentRequests) {
  auto keys = [](const std::vector<mcrtl::core::SweepRequest>& reqs) {
    std::string out;
    for (const auto& r : reqs) out += request_key(r) + "\n";
    return out;
  };
  const auto a = serve_requests(5, 200);
  ASSERT_EQ(a.size(), 200u);
  EXPECT_EQ(keys(a), keys(serve_requests(5, 200)));
  EXPECT_NE(keys(a), keys(serve_requests(6, 200)));
  std::set<std::string> distinct;
  for (const auto& r : a) {
    distinct.insert(request_key(r));
    EXPECT_EQ(r.computations, 1000u);
    EXPECT_GE(r.clocks, 2);
    EXPECT_LE(r.clocks, 4);
    EXPECT_GE(r.seed, 1u);
    EXPECT_LE(r.seed, 6u);
  }
  EXPECT_LE(distinct.size(), 144u);
  EXPECT_EQ(search_grid().space.candidates.size(), 1392u);
}

TEST(Metrics, NamesAreWellFormedAndMatchBenchmarkJson) {
  const std::regex ok("[A-Za-z0-9_.-]+");
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in) << PERFBENCH_BENCHMARK_JSON;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  const std::string per_layer = json.substr(json.find("\"per_layer\""));
  std::vector<std::pair<std::string, std::string>> listed;
  const std::regex entry(
      "\\{\"name\": \"([^\"]*)\", \"unit\": \"([^\"]*)\"");
  for (std::sregex_iterator it(per_layer.begin(), per_layer.end(), entry), end;
       it != end; ++it) {
    listed.emplace_back((*it)[1], (*it)[2]);
  }
  EXPECT_EQ(listed, layer_metrics());
  std::set<std::string> names;
  for (std::sregex_iterator it(json.begin(), json.end(), entry), end;
       it != end; ++it) {
    const std::string name = (*it)[1];
    EXPECT_TRUE(std::regex_match(name, ok)) << name;
    EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
  }
  EXPECT_TRUE(names.count("setup_s"));
}

TEST(Checks, CorruptedDigestIsAFailure) {
  const auto b = mcrtl::suite::by_name("facet", 4);
  Sweep s;
  s.name = b.name;
  s.width = 4;
  s.cfg.max_clocks = 2;
  s.cfg.computations = 50;
  const auto r = mcrtl::core::explore(*b.graph, *b.schedule, s.cfg);
  const std::string csv = sweep_csv(s, r);
  const std::uint64_t ref = digest(csv);

  Checks checks;
  checks.attempt(2);
  EXPECT_TRUE(checks.expect(digest_matches(ref, csv), "intact"));
  EXPECT_FALSE(checks.expect(digest_matches(ref ^ 1, csv), "corrupted digest"));
  EXPECT_EQ(checks.attempted(), 2u);
  EXPECT_EQ(checks.failed(), 1u);
}

TEST(Replica, MatchesExploreBitForBitAndDetectsADifference) {
  const auto b = mcrtl::suite::by_name("hal", 4);
  mcrtl::core::ExplorerConfig cfg;
  cfg.max_clocks = 3;
  cfg.include_dff_variant = true;
  cfg.computations = 100;
  cfg.seed = 42;
  const auto ref = mcrtl::core::explore(*b.graph, *b.schedule, cfg);
  Tracer tracer(true);
  KernelTally tally;
  Checks checks;
  auto replica = replicate_explore(*b.graph, *b.schedule, cfg, tracer, 1,
                                   tally, checks);
  EXPECT_EQ(checks.failed(), 0u);
  EXPECT_TRUE(results_identical(replica, ref));
  EXPECT_EQ(tally.points, ref.points.size());
  EXPECT_EQ(tally.computations_checked, 100u * ref.points.size());
  EXPECT_GT(tally.settles, 0u);
  EXPECT_LE(tally.evals, tally.oblivious_evals);
  EXPECT_EQ(self_times(tracer.spans_since(0)).violations, 0u);

  replica.points[1].crest = std::nextafter(replica.points[1].crest, 1e9);
  EXPECT_FALSE(results_identical(replica, ref));
}
