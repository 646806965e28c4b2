// Seeded inputs of the four workloads and the checks on their outputs.
//
// Everything a workload feeds the library is generated here from the
// benchmark seed; the same seed gives identical inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/explorer.hpp"
#include "core/search.hpp"
#include "core/serve.hpp"
#include "dfg/graph.hpp"
#include "dfg/schedule.hpp"

namespace perfbench {

/// splitmix64 of (seed, salt): independent sub-seeds from one run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// One explore() call: a behaviour, its schedule and the sweep knobs.
struct Sweep {
  std::string name;
  unsigned width = 0;
  std::unique_ptr<mcrtl::dfg::Graph> graph;
  std::unique_ptr<mcrtl::dfg::Schedule> sched;
  mcrtl::core::ExplorerConfig cfg;
};

/// explore_suite: every built-in behaviour except `motivating` at widths 4
/// and 8; max_clocks 4 with the DFF variant (15 points), 4000 computations.
std::vector<Sweep> suite_sweeps(std::uint64_t seed, int jobs);

/// explore_large: 16 random DFGs, four each at 128/256/512/1024 nodes
/// (8 inputs, width 8), list-scheduled with default_limit 4; max_clocks 4
/// (9 points), 16 computations.
std::vector<Sweep> large_sweeps(std::uint64_t seed, int jobs);

/// The CSV report a user of `mcrtl explore` gets for this sweep.
std::string sweep_csv(const Sweep& s, const mcrtl::core::ExplorationResult& r);

/// FNV-1a 64 of a report.
std::uint64_t digest(const std::string& text);

/// search_grid: {facet, hal, biquad, bandpass} x widths {4, 8} x schedules
/// {reference, list limit 1, list limit 2} x search_variants(4).
struct SearchGrid {
  std::vector<std::unique_ptr<mcrtl::dfg::Graph>> graphs;
  std::vector<std::unique_ptr<mcrtl::dfg::Schedule>> scheds;
  mcrtl::core::SearchSpace space;
};
SearchGrid search_grid();
mcrtl::core::SearchConfig search_config(std::uint64_t seed, int jobs,
                                        const std::string& cache_db);

/// serve_mixed: `count` sweep requests drawn uniformly from {facet, hal,
/// biquad, bandpass} x width {4, 8} x clocks {2, 3, 4} x seed 1..6 at 1000
/// computations.
std::vector<mcrtl::core::SweepRequest> serve_requests(std::uint64_t seed,
                                                      std::size_t count);
std::string request_key(const mcrtl::core::SweepRequest& req);

/// The CSV the daemon must answer `req` with, computed in this process
/// through explore() and the shared report path.
std::string reference_reply(const mcrtl::core::SweepRequest& req, int jobs);

/// Attempted/failed tally of a run. A failed check never stops the run; the
/// first few messages go to stderr. Thread-safe.
class Checks {
 public:
  void attempt(std::size_t n = 1);
  /// Records a failure when !ok; returns ok.
  bool expect(bool ok, const std::string& what);
  std::size_t attempted() const;
  std::size_t failed() const;

 private:
  mutable std::mutex m_;
  std::size_t attempted_ = 0;  // guarded by m_
  std::size_t failed_ = 0;     // guarded by m_
};

/// Does `csv` reproduce the reference digest? The explore_* check.
bool digest_matches(std::uint64_t reference, const std::string& csv);

}  // namespace perfbench
