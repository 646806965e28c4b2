// Per-layer measurement of the exploration point.
//
// The traced run replays explore()'s per-point pipeline from the
// benchmark: the same public functions, with the same objects, in the same
// order (stimulus, synthesize, Simulator, Attribution + PowerProbe, run,
// check_outputs, estimate_power, attribute, estimate_area), each inside a
// span. Its points must equal explore()'s bit for bit, so the layer times
// describe the program the end-to-end run measures.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/explorer.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Work counts gathered from the replicated points.
struct KernelTally {
  std::uint64_t settles = 0;
  std::uint64_t evals = 0;
  std::uint64_t oblivious_evals = 0;
  std::uint64_t computations_checked = 0;
  std::uint64_t points = 0;
};

/// explore() for streams == 1 with no journal, retries or sharding,
/// rebuilt from the library's public calls with a span around each layer.
/// A non-equivalent point is reported through `checks`.
mcrtl::core::ExplorationResult replicate_explore(
    const mcrtl::dfg::Graph& graph, const mcrtl::dfg::Schedule& sched,
    const mcrtl::core::ExplorerConfig& cfg, Tracer& tracer,
    std::uint64_t request, KernelTally& tally, Checks& checks);

/// Every measured field (bit patterns of the doubles), label, order and
/// Pareto flag agree.
bool results_identical(const mcrtl::core::ExplorationResult& a,
                       const mcrtl::core::ExplorationResult& b);

/// One sweep of a profile pass (borrowed graph and schedule).
struct ProfileSweep {
  const mcrtl::dfg::Graph* graph = nullptr;
  const mcrtl::dfg::Schedule* sched = nullptr;
  mcrtl::core::ExplorerConfig cfg;
};

/// One profile pass over `sweeps`: each is replicated under spans, then run
/// through explore() at jobs 1 and at `jobs`; all three must agree. Returns
/// the per-layer metrics of the pass (see README.md for the list). Every
/// point is also stored in a ResultCache written to `db_path`, so the
/// caller can measure the point store on it.
std::map<std::string, double> profile_pass(
    const std::vector<ProfileSweep>& sweeps, int jobs, Tracer& tracer,
    Checks& checks, const std::string& db_path, std::uint64_t& request);

/// ResultCache load and save on an existing DB, each under a span:
/// core.cache.{rows, db_bytes, load_ms, save_ms}.
std::map<std::string, double> cache_probe(const std::string& db_path,
                                          Tracer& tracer,
                                          std::uint64_t request);

/// The per-layer metrics as (name, unit), in print order. Metrics of a
/// layer a workload never calls are reported as 0 work.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

}  // namespace perfbench
