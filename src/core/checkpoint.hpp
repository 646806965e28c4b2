// The point store: the one on-disk home of evaluated design points.
//
// Every persisted ExplorationPoint — a checkpoint file (`explore
// --checkpoint`, the shard files `mcrtl merge` reads), the search result
// cache (`mcrtl search --cache-db`) and the sweep daemon's cache (`mcrtl
// serve --cache-db`) — is written and read by ResultCache, in one line
// format:
//
//   mcrtl-store v1 fp=<16-hex scope>
//   r <key> <label> <power x9> <area x8> <alu_summary> <stats x6>
//     <hotspot> <hotspot_share> <crest> <crc>
//   x <sweep_fp> <key> <rung> <dominated_by> <crc>
//
// A row's key is point_key() = measurement_fingerprint(behaviour) ^
// config_hash(options), so a row is valid in any sweep that measures the
// same behaviour the same way. The header's *scope* says which file this
// is: 0 for a cache DB, sweep_fingerprint() for a checkpoint file — a
// checkpoint is a cache slice bound to one sweep, and a file scoped to
// another sweep is stale (JournalMismatchError). `x` lines are the search layer's pruned markers,
// valid only for the identical search. Doubles are 64-bit IEEE bit
// patterns (core/record.hpp), so a replayed point is bit-identical to the
// measured one; every record carries an FNV-1a checksum.
//
// Writes are appends: one fwrite + fsync per batch, so a SIGKILL loses at
// most the batch being written. Reads come in two modes — tolerant (resume,
// search, the daemon: damaged lines are skipped and counted) and strict
// (merge: any damage throws).
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/explorer.hpp"
#include "core/synthesizer.hpp"
#include "util/error.hpp"

namespace mcrtl::core {

/// Thrown when a checkpoint file exists but was written by a different
/// (graph, schedule, ExplorerConfig) — resuming or merging would silently
/// mix measurements from two different experiments.
class JournalMismatchError : public Error {
 public:
  explicit JournalMismatchError(const std::string& what) : Error(what) {}
};

/// Thrown by a strict load when a file is structurally damaged: no valid
/// header, a torn tail or a checksum failure — and by merge_shard_journals()
/// for a record whose key matches no configuration of the sweep. Resume
/// tolerates all of these (an interrupted sweep re-evaluates what it cannot
/// replay); a merge must not — silently dropping a shard's records would
/// produce a report that looks complete but is missing measurements.
class JournalCorruptError : public Error {
 public:
  explicit JournalCorruptError(const std::string& what) : Error(what) {}
};

/// Thrown when strict loads meet two records with one key that disagree
/// (within one file or across files), and when a set of shard files does
/// not cover the sweep.
class MergeError : public Error {
 public:
  explicit MergeError(const std::string& what) : Error(what) {}
};

/// Hash of (behaviour, measurement knobs) — the part of a sweep's identity
/// that is independent of which *other* configurations ride in the same
/// sweep. Every stored row is keyed on point_key(), which is why a row
/// stays valid across overlapping sweeps.
std::uint64_t measurement_fingerprint(const dfg::Graph& graph,
                                      const dfg::Schedule& sched,
                                      std::size_t computations,
                                      std::uint64_t seed, std::size_t streams,
                                      const power::PowerParams& params);

/// A stored row's key: one measurement (measurement_fingerprint) of one
/// configuration, whatever sweep it rode in.
inline std::uint64_t point_key(std::uint64_t measurement_fp,
                               const SynthesisOptions& opts) {
  return measurement_fp ^ config_hash(opts);
}

/// Hash of everything that determines an exploration's measurements and
/// enumeration: the scope of its checkpoint file and the daemon's in-flight
/// key. Deliberately excludes `jobs`, the shard fields and the
/// fault-tolerance knobs: they change how the sweep is executed, never what
/// it measures.
std::uint64_t sweep_fingerprint(const ExplorerConfig& cfg,
                                const dfg::Graph& graph,
                                const dfg::Schedule& sched);

class ResultCache {
 public:
  struct PrunedMark {
    int rung = 0;
    std::string dominated_by;
  };

  /// One record for append(): a row when `point` is set, else a pruned
  /// marker (`sweep_fp`, `mark`).
  struct Record {
    std::uint64_t key = 0;
    const ExplorationPoint* point = nullptr;
    std::uint64_t sweep_fp = 0;
    PrunedMark mark;
  };

  ResultCache() = default;
  ~ResultCache();
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Tolerant load of the cache DB (scope 0) at `path` into this cache
  /// (later records win). A missing file is a no-op; a foreign or old
  /// header reads as empty and counts as one bad line. Returns the number
  /// of malformed lines skipped.
  std::size_t load(const std::string& path);

  /// What a load read and did.
  struct LoadStats {
    std::size_t records = 0;     ///< well-formed records read
    std::size_t bad_lines = 0;   ///< corrupt lines dropped (tolerant loads)
    /// Records whose key was already held: shadowed by the later line
    /// (tolerant) or agreeing overlap (strict).
    std::size_t superseded = 0;
    bool rewritten = false;      ///< load_and_compact() rewrote the file
  };

  /// Open `path` as this cache's store: a tolerant load at `scope` (0 = a
  /// cache DB, a sweep fingerprint = a checkpoint file), after which
  /// append() writes to `path`. A file carrying another non-foreign scope
  /// throws JournalMismatchError. A file with superseded duplicates or
  /// corrupt lines is rewritten in place (atomic save) with exactly the
  /// records the load kept; a clean file is left untouched byte-for-byte,
  /// and so is a file that yielded no record at all (an all-corrupt or
  /// foreign file is worth more as evidence than as an empty DB — the first
  /// append replaces it). The path stays bound even if the load throws, so
  /// a caller that degrades an unreadable file to a fresh run still
  /// persists. Carries the `journal.load` fault site.
  LoadStats load_and_compact(const std::string& path,
                             std::uint64_t scope = 0);

  /// Strict load of `path` at `scope` into this cache — parse the whole
  /// file or throw: Error when it cannot be opened, JournalMismatchError on
  /// another scope, JournalCorruptError on a missing or malformed header, a
  /// torn tail or a malformed/checksum-failing line, MergeError when a
  /// record disagrees with one this cache already holds under its key (from
  /// this file or an earlier one). Agreeing duplicates are counted as
  /// superseded.
  LoadStats load_strict(const std::string& path, std::uint64_t scope);

  const ExplorationPoint* find_row(std::uint64_t key) const;
  const PrunedMark* find_pruned(std::uint64_t sweep_fp,
                                std::uint64_t key) const;

  void put_row(std::uint64_t key, const ExplorationPoint& p);
  void put_pruned(std::uint64_t sweep_fp, std::uint64_t key,
                  const PrunedMark& mark);

  /// Put `batch` into this cache and append it to the bound store in one
  /// fwrite + fsync. Thread-safe against concurrent append() calls (not
  /// against concurrent readers). A missing, empty or foreign file is
  /// created fresh with a header first; a torn tail is truncated to the
  /// last complete line, so the batch never concatenates onto a partial
  /// record. An empty batch only makes sure the file exists. An I/O
  /// failure (or an injected `journal.append` fault) is retried once; if it
  /// persists, persistence is disabled for the rest of this cache's life
  /// and append returns false — a broken disk degrades the store, never
  /// the sweep. Also false when no store is bound.
  bool append(const std::vector<Record>& batch);

  /// Rewrite `path` atomically (tmp + rename) with every record this cache
  /// holds, in sorted key order, under this cache's scope. Returns false on
  /// I/O failure.
  bool save(const std::string& path) const;

  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_pruned() const { return pruned_.size(); }

 private:
  LoadStats read(const std::string& path, std::uint64_t scope, bool strict);
  std::string open_store();

  std::map<std::uint64_t, ExplorationPoint> rows_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, PrunedMark> pruned_;
  std::uint64_t scope_ = 0;

  std::mutex io_m_;
  std::string path_;     ///< bound store ("" = none)
  bool persist_ = false; ///< bound and not disabled by a failure
  std::FILE* f_ = nullptr;
};

}  // namespace mcrtl::core
