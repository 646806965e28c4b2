// Multi-process sharded sweeps: slice parsing and byte-identical merge.
//
// A sweep is sharded by round-robin on the enumeration index
// (core::shard_owns): worker process k of N evaluates exactly the indices
// i with i % N == k, persisting each completed point to its own checkpoint
// file (a point store scoped to the sweep, core/checkpoint.hpp). This
// module is the other half: merge the K shard files back into one
// ExplorationResult that is byte-identical — down to every CSV/JSON report
// byte — to what a single unsharded explore() would have returned. See
// DESIGN.md §12.
//
// The merge is strict where resume is tolerant. A resumed sweep can always
// re-evaluate what its file lost; a merge has no evaluator, so every
// defect — torn tail, checksum failure, stale scope, a missing point, two
// records for one key with different measurements — is a loud error,
// never a silently partial report.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/explorer.hpp"
#include "power/report.hpp"
#include "util/error.hpp"

namespace mcrtl::core {

/// A CLI-facing shard slice. parse_shard() accepts the 1-based "i/N" the
/// `--shard` flag takes ("2/3" = second of three workers) and yields the
/// 0-based index ExplorerConfig carries.
struct ShardSpec {
  int index = 0;  ///< 0-based
  int count = 0;  ///< total workers; 0 = unsharded
};

/// Parse "i/N" with 1 <= i <= N. Throws mcrtl::Error on anything else
/// (malformed, zero, negative, i > N).
ShardSpec parse_shard(const std::string& spec);

/// Bookkeeping from a merge, for reporting and tests.
struct MergeStats {
  std::size_t journals = 0;        ///< shard journals read
  std::size_t records = 0;         ///< total records read (incl. agreeing overlap)
  std::size_t overlap_records = 0; ///< records whose key an earlier record already supplied
};

/// Replay `journal_paths` (one per shard worker, any order) against the
/// sweep that `graph`/`sched`/`cfg` describe and reassemble the complete
/// result. `cfg` is the *unsharded* configuration (its shard fields are
/// ignored — shard assignment is an execution knob outside the sweep
/// fingerprint, so every shard file carries the unsharded sweep's scope).
///
/// Validation, in order, all fatal:
///   - every file must open, carry this sweep's scope, and parse
///     completely (ResultCache::load_strict — Error / JournalMismatchError
///     / JournalCorruptError);
///   - two records with one key, in one file or across files, must agree
///     on the measurement (agreeing overlap is tolerated and counted —
///     e.g. the same shard run twice — but a conflict is a MergeError);
///   - every record's key must match a configuration of the sweep
///     (JournalCorruptError naming the file);
///   - after all files, every enumerated configuration must be covered
///     (MergeError naming the missing indices and labels).
///
/// Points are looked up by key, take label and options from the
/// enumeration, and are finished by finalize_points() — the same pre-sort
/// order and final sort/Pareto pass as explore(), which is what makes the
/// merged result byte-identical to an unsharded run for any shard count
/// and any jobs value.
ExplorationResult merge_shard_journals(const dfg::Graph& graph,
                                       const dfg::Schedule& sched,
                                       const ExplorerConfig& cfg,
                                       const std::vector<std::string>& journal_paths,
                                       MergeStats* stats = nullptr);

/// The CLI/daemon report rows for an exploration result (experiment
/// "cli_explore"): one record per point in result order, dominated_by
/// resolved from the sorted points exactly like the explorer table.
/// `mcrtl explore`, `mcrtl merge` and the sweep daemon all build their
/// CSV/JSON through this one function — which is what "byte-identical
/// reports" means across the three paths.
std::vector<power::ExperimentRecord> explore_records(
    const ExplorationResult& r, const std::string& benchmark, unsigned width,
    std::size_t computations, std::size_t streams);

}  // namespace mcrtl::core
