// Sharded multi-process sweeps (core/shard.hpp) and the strict journal
// merge behind `mcrtl merge`.
//
// The contract under test, in order of importance:
//   1. Byte-identical merge: K shard workers — library calls or real
//      `mcrtl explore --shard` subprocesses — journal disjoint slices, and
//      merge_shard_journals() reassembles CSV/JSON reports that match an
//      unsharded explore() byte-for-byte, for every (K, jobs) tested.
//   2. The merge is strict where resume is tolerant: a missing shard, a
//      torn tail, a checksum failure, a stale fingerprint or two records
//      disagreeing on one key is a loud error, never a silently partial
//      report. Agreeing overlap (the same shard run twice, or two labels of
//      one configuration owned by different shards) is tolerated.
//   3. Crash-safety composes with sharding: a SIGKILLed shard worker
//      resumes from its journal and the merged sweep is still identical.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "core/checkpoint.hpp"
#include "core/explorer.hpp"
#include "core/shard.hpp"
#include "power/report.hpp"
#include "suite/benchmarks.hpp"
#include "util/error.hpp"
#include "subprocess.hpp"
#include "util/fault_injection.hpp"

using namespace mcrtl;

namespace {

core::ExplorerConfig small_config() {
  core::ExplorerConfig cfg;
  cfg.max_clocks = 3;
  cfg.computations = 120;
  cfg.jobs = 1;
  return cfg;
}

/// small_config()'s enumeration plus two duplicate configurations under
/// their own labels: two labels share each duplicated store key, and the
/// shards that own them both evaluate it.
core::ExplorerConfig duplicate_config() {
  auto cfg = small_config();
  cfg.explicit_configs = core::enumerate_configurations(small_config());
  cfg.explicit_configs.emplace_back(cfg.explicit_configs[0].first, "dup-a");
  cfg.explicit_configs.emplace_back(cfg.explicit_configs[3].first, "dup-b");
  return cfg;
}

/// The exact bytes the CLI would export for `r` — merge's correctness is
/// specified at the report-byte level, through the same record builder
/// `mcrtl explore`, `mcrtl merge` and the daemon share.
std::string report_bytes(const core::ExplorationResult& r) {
  const auto recs = core::explore_records(r, "facet", 4, 120, 1);
  return power::to_csv(recs) + "\n---\n" + power::to_json(recs);
}

struct TempPath {
  std::string path;
  explicit TempPath(const std::string& name)
      : path(std::string(::testing::TempDir()) + name) {
    std::remove(path.c_str());
  }
  ~TempPath() { std::remove(path.c_str()); }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// Run shard k of K of the sweep `cfg` describes, journalling into `path`.
core::ExplorationResult run_shard(const suite::Benchmark& b,
                                  core::ExplorerConfig cfg, int k, int K,
                                  const std::string& path, int jobs = 1) {
  cfg.shard_index = k;
  cfg.shard_count = K;
  cfg.checkpoint_file = path;
  cfg.jobs = jobs;
  return core::explore(*b.graph, *b.schedule, cfg);
}

}  // namespace

// ---------------------------------------------------------------------------
// parse_shard / shard_owns

TEST(ShardSpecTest, ParseAcceptsValidSpecs) {
  const auto a = core::parse_shard("1/1");
  EXPECT_EQ(a.index, 0);
  EXPECT_EQ(a.count, 1);
  const auto c = core::parse_shard("2/3");
  EXPECT_EQ(c.index, 1);
  EXPECT_EQ(c.count, 3);
  const auto d = core::parse_shard("16/16");
  EXPECT_EQ(d.index, 15);
  EXPECT_EQ(d.count, 16);
}

TEST(ShardSpecTest, ParseRejectsMalformedSpecs) {
  for (const char* bad :
       {"", "3", "/3", "3/", "0/3", "4/3", "-1/3", "2/0", "2/-3", "a/b",
        "2/3x", "2.5/3", "2 /3", "1/1000001"}) {
    EXPECT_THROW(core::parse_shard(bad), Error) << "'" << bad << "'";
  }
}

TEST(ShardSpecTest, RoundRobinPartitionsTheEnumeration) {
  const auto cfg = small_config();
  const std::size_t total = core::num_configurations(cfg);
  ASSERT_EQ(total, 7u);  // facet at max_clocks 3: the natural K=8 empty shard
  for (int K = 1; K <= 8; ++K) {
    std::size_t sum = 0;
    for (std::size_t i = 0; i < total; ++i) {
      int owners = 0;
      for (int k = 0; k < K; ++k) {
        auto shard = cfg;
        shard.shard_index = k;
        shard.shard_count = K;
        if (core::shard_owns(shard, i)) ++owners;
      }
      EXPECT_EQ(owners, 1) << "index " << i << " with K=" << K;
    }
    for (int k = 0; k < K; ++k) {
      auto shard = cfg;
      shard.shard_index = k;
      shard.shard_count = K;
      sum += core::num_configurations(shard);
    }
    EXPECT_EQ(sum, total) << "K=" << K;
  }
  // Unsharded (count 0 or 1) owns everything.
  EXPECT_TRUE(core::shard_owns(cfg, 0));
  EXPECT_TRUE(core::shard_owns(cfg, total - 1));
}

// ---------------------------------------------------------------------------
// Library-level shard + merge

TEST(ShardMergeTest, MergedResultIsByteIdenticalForAnyShardCountAndJobs) {
  const auto b = suite::by_name("facet", 4);
  for (const bool dup : {false, true}) {
    const auto cfg = dup ? duplicate_config() : small_config();
    const auto baseline = core::explore(*b.graph, *b.schedule, cfg);
    const std::string expect = report_bytes(baseline);
    const std::size_t total = core::num_configurations(cfg);
    const std::size_t distinct = core::num_configurations(small_config());

    for (int K : {1, 2, 3, 8}) {
      for (int jobs : {1, 2}) {
        SCOPED_TRACE("dup=" + std::to_string(dup) + " K=" + std::to_string(K) +
                     " jobs=" + std::to_string(jobs));
        std::vector<std::unique_ptr<TempPath>> journals;
        std::vector<std::string> paths;
        std::size_t shard_points = 0;
        for (int k = 0; k < K; ++k) {
          journals.push_back(std::make_unique<TempPath>(
              "sh_ident_" + std::to_string(K) + "_" + std::to_string(jobs) +
              "_" + std::to_string(k) + ".journal"));
          paths.push_back(journals.back()->path);
          const auto r = run_shard(b, cfg, k, K, paths.back(), jobs);
          shard_points += r.points.size();
        }
        EXPECT_EQ(shard_points, total);
        core::MergeStats stats;
        const auto merged = core::merge_shard_journals(*b.graph, *b.schedule,
                                                       cfg, paths, &stats);
        EXPECT_EQ(stats.journals, static_cast<std::size_t>(K));
        // One record per distinct key, plus a duplicate's agreeing record
        // when another shard owns it.
        EXPECT_EQ(stats.records - stats.overlap_records, distinct);
        if (!dup) {
          EXPECT_EQ(stats.overlap_records, 0u);
        }
        EXPECT_EQ(merged.replayed_points, total);
        EXPECT_EQ(expect, report_bytes(merged));
      }
    }
  }
}

TEST(ShardMergeTest, EmptyShardJournalsHeaderOnlyAndMergesFine) {
  // 7 points over 8 shards: shard 8 owns nothing, runs nothing, and its
  // header-only journal must still merge (an empty slice is valid coverage).
  const auto b = suite::by_name("facet", 4);
  const auto cfg = small_config();
  const auto r8 = run_shard(b, cfg, 7, 8, /*path=*/
                            (std::string(::testing::TempDir()) +
                             "sh_empty_probe.journal"));
  EXPECT_TRUE(r8.points.empty());
  std::remove((std::string(::testing::TempDir()) + "sh_empty_probe.journal")
                  .c_str());

  std::vector<std::unique_ptr<TempPath>> journals;
  std::vector<std::string> paths;
  for (int k = 0; k < 8; ++k) {
    journals.push_back(
        std::make_unique<TempPath>("sh_empty_" + std::to_string(k) +
                                   ".journal"));
    paths.push_back(journals.back()->path);
    run_shard(b, cfg, k, 8, paths.back());
  }
  const std::string empty_bytes = slurp(paths[7]);
  EXPECT_EQ(empty_bytes.find("mcrtl-store"), 0u);
  EXPECT_EQ(empty_bytes.find("\nr "), std::string::npos);

  const auto merged =
      core::merge_shard_journals(*b.graph, *b.schedule, cfg, paths);
  const auto baseline = core::explore(*b.graph, *b.schedule, cfg);
  EXPECT_EQ(report_bytes(baseline), report_bytes(merged));
}

TEST(ShardMergeTest, AgreeingOverlapIsToleratedAndCounted) {
  // The same complete journal twice: every record of the second is overlap,
  // but it agrees bit-for-bit, so the merge succeeds and just counts it.
  const auto b = suite::by_name("facet", 4);
  auto cfg = small_config();
  TempPath journal("sh_overlap.journal");
  cfg.checkpoint_file = journal.path;
  const auto baseline = core::explore(*b.graph, *b.schedule, cfg);

  core::MergeStats stats;
  const auto merged = core::merge_shard_journals(
      *b.graph, *b.schedule, small_config(), {journal.path, journal.path},
      &stats);
  EXPECT_EQ(stats.journals, 2u);
  EXPECT_EQ(stats.overlap_records, baseline.points.size());
  EXPECT_EQ(report_bytes(baseline), report_bytes(merged));
}

TEST(ShardMergeTest, MissingShardIsALoudError) {
  const auto b = suite::by_name("facet", 4);
  const auto cfg = small_config();
  TempPath j0("sh_missing_0.journal");
  TempPath j1("sh_missing_1.journal");
  run_shard(b, cfg, 0, 3, j0.path);
  run_shard(b, cfg, 1, 3, j1.path);
  // Shard 3 of 3 never ran: the merge must name the uncovered labels, not
  // produce a 5-point report that looks complete.
  try {
    core::merge_shard_journals(*b.graph, *b.schedule, cfg,
                               {j0.path, j1.path});
    FAIL() << "merge accepted incomplete coverage";
  } catch (const core::MergeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("missing"), std::string::npos) << what;
    // Index 2 belongs to the absent shard; its label must be spelled out.
    const auto configs = core::enumerate_configurations(cfg);
    EXPECT_NE(what.find(configs[2].second), std::string::npos) << what;
  }
}

TEST(ShardMergeTest, StaleShardJournalIsRejected) {
  const auto b = suite::by_name("facet", 4);
  auto other = small_config();
  other.seed += 1;  // a different sweep: same enumeration, different stimulus
  TempPath journal("sh_stale.journal");
  run_shard(b, other, 0, 1, journal.path);
  EXPECT_THROW(core::merge_shard_journals(*b.graph, *b.schedule,
                                          small_config(), {journal.path}),
               core::JournalMismatchError);
}

TEST(ShardMergeTest, TornTailIsFatalInMergeButToleratedByResume) {
  const auto b = suite::by_name("facet", 4);
  auto cfg = small_config();
  TempPath journal("sh_torn.journal");
  cfg.checkpoint_file = journal.path;
  const auto baseline = core::explore(*b.graph, *b.schedule, cfg);

  std::string bytes = slurp(journal.path);
  ASSERT_GT(bytes.size(), 20u);
  spit(journal.path, bytes.substr(0, bytes.size() - 10));  // crash mid-append

  EXPECT_THROW(core::merge_shard_journals(*b.graph, *b.schedule,
                                          small_config(), {journal.path}),
               core::JournalCorruptError);
  // Resume re-evaluates the torn point and heals the journal; after that
  // the very same file is merge-clean again.
  const auto resumed = core::explore(*b.graph, *b.schedule, cfg);
  EXPECT_EQ(report_bytes(baseline), report_bytes(resumed));
  const auto merged = core::merge_shard_journals(*b.graph, *b.schedule,
                                                 small_config(),
                                                 {journal.path});
  EXPECT_EQ(report_bytes(baseline), report_bytes(merged));
}

TEST(ShardMergeTest, ChecksumFailureIsFatalInMerge) {
  const auto b = suite::by_name("facet", 4);
  auto cfg = small_config();
  TempPath journal("sh_crc.journal");
  cfg.checkpoint_file = journal.path;
  core::explore(*b.graph, *b.schedule, cfg);

  // Flip one payload digit in the second record: the line still parses but
  // its CRC no longer matches.
  std::string bytes = slurp(journal.path);
  std::vector<std::size_t> starts;
  for (std::size_t p = bytes.find('\n'); p != std::string::npos;
       p = bytes.find('\n', p + 1)) {
    if (p + 1 < bytes.size()) starts.push_back(p + 1);
  }
  ASSERT_GE(starts.size(), 2u);
  for (std::size_t q = starts[1]; q < bytes.size(); ++q) {
    if (bytes[q] == '4') {
      bytes[q] = '5';
      break;
    }
  }
  spit(journal.path, bytes);
  EXPECT_THROW(core::merge_shard_journals(*b.graph, *b.schedule,
                                          small_config(), {journal.path}),
               core::JournalCorruptError);
}

TEST(ShardMergeTest, ConflictingOverlapIsFatal) {
  const auto b = suite::by_name("facet", 4);
  auto cfg = small_config();
  TempPath full("sh_conflict_full.journal");
  cfg.checkpoint_file = full.path;
  const auto baseline = core::explore(*b.graph, *b.schedule, cfg);

  // A second file claiming configuration 0's key with a perturbed
  // measurement — valid header, valid CRC, same label, different payload.
  // This is the "two shards did not run the same sweep" failure a checksum
  // cannot catch.
  const auto configs = core::enumerate_configurations(small_config());
  core::ExplorationPoint forged;
  bool found = false;
  for (const auto& p : baseline.points) {
    if (p.label == configs[0].second) {
      forged = p;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  forged.power.total += 1.0;
  TempPath liar("sh_conflict_liar.journal");
  {
    const auto c = small_config();
    const std::uint64_t key =
        core::measurement_fingerprint(*b.graph, *b.schedule, c.computations,
                                      c.seed, c.streams, c.power_params) ^
        core::config_hash(configs[0].first);
    core::ResultCache liar_store;
    liar_store.load_and_compact(liar.path,
                                core::sweep_fingerprint(c, *b.graph,
                                                        *b.schedule));
    ASSERT_TRUE(liar_store.append({{key, &forged, 0, {}}}));
  }
  try {
    core::merge_shard_journals(*b.graph, *b.schedule, small_config(),
                               {full.path, liar.path});
    FAIL() << "merge accepted conflicting coverage";
  } catch (const core::MergeError& e) {
    EXPECT_NE(std::string(e.what()).find("disagree"), std::string::npos)
        << e.what();
  }
}

TEST(ShardMergeTest, MergeFaultSiteAborts) {
  const auto b = suite::by_name("facet", 4);
  auto cfg = small_config();
  TempPath journal("sh_fault.journal");
  cfg.checkpoint_file = journal.path;
  core::explore(*b.graph, *b.schedule, cfg);

  fault::set_enabled(true);
  fault::Injector::instance().reset();
  fault::ArmSpec spec;
  spec.mode = fault::ArmSpec::Mode::Always;
  fault::Injector::instance().arm("journal.merge", spec);
  EXPECT_THROW(core::merge_shard_journals(*b.graph, *b.schedule,
                                          small_config(), {journal.path}),
               fault::InjectedFault);
  fault::Injector::instance().reset();
  fault::set_enabled(false);
  // With the fault gone the same journal merges cleanly.
  EXPECT_NO_THROW(core::merge_shard_journals(*b.graph, *b.schedule,
                                             small_config(),
                                             {journal.path}));
}

TEST(ShardMergeTest, ShardJournalRejectsFullJournalReplayOverflow) {
  // Pointing a *shard* at a journal that covers the whole sweep must not
  // make the shard adopt foreign slices: it replays only what it owns.
  const auto b = suite::by_name("facet", 4);
  auto cfg = small_config();
  TempPath journal("sh_fulljournal.journal");
  cfg.checkpoint_file = journal.path;
  const auto baseline = core::explore(*b.graph, *b.schedule, cfg);
  ASSERT_EQ(baseline.points.size(), 7u);

  auto shard = cfg;
  shard.shard_index = 0;
  shard.shard_count = 2;
  const auto r = core::explore(*b.graph, *b.schedule, shard);
  EXPECT_EQ(r.points.size(), 4u);  // indices 0, 2, 4, 6
  EXPECT_EQ(r.replayed_points, 4u);
}

// ---------------------------------------------------------------------------
// Cross-process differential: real `mcrtl explore --shard` workers + merge

#ifndef _WIN32

namespace {

std::vector<std::string> shard_argv(const std::string& cli, int k, int K,
                                    int jobs, const std::string& journal) {
  return {cli,
          "explore",
          "facet",
          "--clocks",
          "3",
          "--computations",
          "120",
          "--jobs",
          std::to_string(jobs),
          "--shard",
          std::to_string(k) + "/" + std::to_string(K),
          "--checkpoint",
          journal};
}

}  // namespace

TEST(ShardCliTest, CrossProcessShardedSweepMergesByteIdentical) {
  const std::string cli = MCRTL_CLI_PATH;
  TempPath base_csv("sh_cli_base.csv");
  TempPath base_json("sh_cli_base.json");
  {
    auto p = proc::Subprocess::spawn(
        {cli, "explore", "facet", "--clocks", "3", "--computations", "120",
         "--jobs", "2", "--csv", base_csv.path, "--json", base_json.path},
        /*quiet=*/true);
    ASSERT_EQ(p.wait(), 0);
  }
  const std::string expect_csv = slurp(base_csv.path);
  const std::string expect_json = slurp(base_json.path);
  ASSERT_FALSE(expect_csv.empty());
  ASSERT_FALSE(expect_json.empty());

  for (int K : {1, 2, 3, 8}) {
    for (int jobs : {1, 2}) {
      SCOPED_TRACE("K=" + std::to_string(K) +
                   " jobs=" + std::to_string(jobs));
      std::vector<std::unique_ptr<TempPath>> journals;
      std::vector<std::vector<std::string>> argvs;
      std::string joined;
      for (int k = 1; k <= K; ++k) {
        journals.push_back(std::make_unique<TempPath>(
            "sh_cli_" + std::to_string(K) + "_" + std::to_string(jobs) +
            "_" + std::to_string(k) + ".journal"));
        argvs.push_back(shard_argv(cli, k, K, jobs, journals.back()->path));
        if (!joined.empty()) joined += ',';
        joined += journals.back()->path;
      }
      // All K workers at once — genuinely concurrent processes.
      for (int code : proc::run_all(argvs, /*quiet=*/true)) {
        ASSERT_EQ(code, 0);
      }
      TempPath mcsv("sh_cli_m.csv");
      TempPath mjson("sh_cli_m.json");
      auto m = proc::Subprocess::spawn(
          {cli, "merge", "facet", "--clocks", "3", "--computations", "120",
           "--journals", joined, "--csv", mcsv.path, "--json", mjson.path},
          /*quiet=*/true);
      ASSERT_EQ(m.wait(), 0);
      EXPECT_EQ(expect_csv, slurp(mcsv.path));
      EXPECT_EQ(expect_json, slurp(mjson.path));
    }
  }
}

TEST(ShardCliTest, ShardWithoutCheckpointIsAUsageError) {
  auto p = proc::Subprocess::spawn(
      {MCRTL_CLI_PATH, "explore", "facet", "--shard", "1/2"},
      /*quiet=*/true);
  EXPECT_NE(p.wait(), 0);
}

TEST(ShardCliTest, MergeOfMissingShardFailsLoudly) {
  const std::string cli = MCRTL_CLI_PATH;
  TempPath j1("sh_cli_miss_1.journal");
  auto p = proc::Subprocess::spawn(shard_argv(cli, 1, 2, 1, j1.path),
                                   /*quiet=*/true);
  ASSERT_EQ(p.wait(), 0);
  auto m = proc::Subprocess::spawn(
      {cli, "merge", "facet", "--clocks", "3", "--computations", "120",
       "--journals", j1.path},
      /*quiet=*/true);
  EXPECT_NE(m.wait(), 0);
}

TEST(ShardCliTest, SigkilledShardResumesAndMergesByteIdentical) {
  const auto b = suite::by_name("facet", 4);
  const auto cfg = small_config();
  const auto baseline = core::explore(*b.graph, *b.schedule, cfg);
  TempPath j0("sh_kill_0.journal");
  TempPath j1("sh_kill_1.journal");

  // The victim runs shard 1/2 throttled so the parent can SIGKILL it with
  // at least one record fsync'd but the slice unfinished — a real crash.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto child = cfg;
    child.shard_index = 0;
    child.shard_count = 2;
    child.checkpoint_file = j0.path;
    child.on_point = [](const core::ExplorationPoint&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    };
    core::explore(*b.graph, *b.schedule, child);
    _exit(0);  // only reached if the parent never killed us
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::size_t records = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    records = 0;
    const std::string bytes = slurp(j0.path);
    for (std::size_t p = bytes.find("\nr "); p != std::string::npos;
         p = bytes.find("\nr ", p + 1)) {
      if (bytes.find('\n', p + 1) != std::string::npos) ++records;
    }
    if (records >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  kill(pid, SIGKILL);
  int status = 0;
  waitpid(pid, &status, 0);
  ASSERT_GE(records, 1u) << "shard never journalled a point";
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "shard finished before the kill — throttle too short";

  // The interrupted journal is not mergeable yet: its slice is incomplete.
  run_shard(b, cfg, 1, 2, j1.path);
  EXPECT_THROW(core::merge_shard_journals(*b.graph, *b.schedule, cfg,
                                          {j0.path, j1.path}),
               core::MergeError);

  // Resume shard 1/2 to completion (replaying the survivors), then merge.
  const auto resumed = run_shard(b, cfg, 0, 2, j0.path);
  EXPECT_GE(resumed.replayed_points, records);
  const auto merged = core::merge_shard_journals(*b.graph, *b.schedule, cfg,
                                                 {j0.path, j1.path});
  EXPECT_EQ(report_bytes(baseline), report_bytes(merged));
}

#endif  // !_WIN32
