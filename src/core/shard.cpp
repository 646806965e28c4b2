#include "core/shard.hpp"

#include <cstdlib>
#include <sstream>
#include <unordered_set>

#include "obs/obs.hpp"
#include "util/fault_injection.hpp"

namespace mcrtl::core {

ShardSpec parse_shard(const std::string& spec) {
  const std::size_t slash = spec.find('/');
  auto fail = [&]() -> ShardSpec {
    throw Error("invalid shard spec '" + spec +
                "' (expected i/N with 1 <= i <= N, e.g. --shard 2/3)");
  };
  if (slash == std::string::npos || slash == 0 || slash + 1 >= spec.size()) {
    return fail();
  }
  auto parse_int = [&](const std::string& s, long& out) {
    char* end = nullptr;
    errno = 0;
    out = std::strtol(s.c_str(), &end, 10);
    return errno == 0 && end != s.c_str() && *end == '\0';
  };
  long i = 0;
  long n = 0;
  if (!parse_int(spec.substr(0, slash), i) ||
      !parse_int(spec.substr(slash + 1), n)) {
    return fail();
  }
  if (i < 1 || n < 1 || i > n || n > 1'000'000) return fail();
  ShardSpec out;
  out.index = static_cast<int>(i - 1);
  out.count = static_cast<int>(n);
  return out;
}

ExplorationResult merge_shard_journals(
    const dfg::Graph& graph, const dfg::Schedule& sched,
    const ExplorerConfig& cfg,
    const std::vector<std::string>& journal_paths, MergeStats* stats) {
  obs::Span span("merge");
  if (journal_paths.empty()) {
    throw MergeError("no shard journals to merge");
  }
  // Scope of the *unsharded* sweep; every shard file must carry it. (Shard
  // fields are execution knobs outside the fingerprint, so any
  // ExplorerConfig shard fields on `cfg` are irrelevant here — explore()
  // computed the same scope in every worker.)
  const std::uint64_t scope = sweep_fingerprint(cfg, graph, sched);
  const std::uint64_t mfp =
      measurement_fingerprint(graph, sched, cfg.computations, cfg.seed,
                              cfg.streams, cfg.power_params);
  const auto configs = enumerate_configurations(cfg);
  std::unordered_set<std::uint64_t> keys;
  for (const auto& c : configs) keys.insert(point_key(mfp, c.first));

  // One store accumulates every file: a key two records share must carry
  // one measurement (the strict load throws MergeError otherwise).
  MergeStats local;
  ResultCache store;
  for (const auto& path : journal_paths) {
    fault::inject("journal.merge", path);
    const auto st = store.load_strict(path, scope);
    ++local.journals;
    local.records += st.records;
    local.overlap_records += st.superseded;
    // Earlier files passed this check, so a record whose key matches no
    // configuration of the sweep came from this file.
    std::size_t known = 0;
    for (const std::uint64_t k : keys) known += store.find_row(k) != nullptr;
    if (known != store.num_rows() || store.num_pruned() > 0) {
      throw JournalCorruptError("shard journal '" + path +
                                "' holds a record that matches no "
                                "configuration of this sweep");
    }
  }

  // Coverage: every enumeration index must be present. Name what is
  // missing — "merge failed" without the labels would send the user back
  // to diffing journals by hand.
  ExplorationResult result;
  result.points.reserve(configs.size());
  std::vector<std::string> missing;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const ExplorationPoint* p =
        store.find_row(point_key(mfp, configs[i].first));
    if (!p) {
      missing.push_back(std::to_string(i) + " ('" + configs[i].second + "')");
      continue;
    }
    result.points.push_back(*p);
    result.points.back().options = configs[i].first;
    result.points.back().label = configs[i].second;
  }
  if (!missing.empty()) {
    std::ostringstream os;
    os << "shard journals cover only "
       << (configs.size() - missing.size()) << " of " << configs.size()
       << " points; missing index";
    if (missing.size() > 1) os << "es";
    os << ':';
    for (const auto& m : missing) os << ' ' << m;
    os << " — a shard is absent or was interrupted before finishing";
    throw MergeError(os.str());
  }

  result.replayed_points = result.points.size();
  finalize_points(result.points);
  obs::count("merge.journals", local.journals);
  obs::count("merge.records", local.records);
  if (local.overlap_records > 0) {
    obs::count("merge.overlap_records", local.overlap_records);
  }
  if (stats) *stats = local;
  return result;
}

std::vector<power::ExperimentRecord> explore_records(
    const ExplorationResult& r, const std::string& benchmark, unsigned width,
    std::size_t computations, std::size_t streams) {
  std::vector<power::ExperimentRecord> recs;
  recs.reserve(r.points.size());
  for (const auto& p : r.points) {
    power::ExperimentRecord rec;
    rec.experiment = "cli_explore";
    rec.design = p.label;
    rec.benchmark = benchmark;
    rec.width = width;
    rec.computations = computations;
    rec.streams = streams;
    rec.power = p.power;
    rec.power_stddev = p.power_stddev;
    rec.power_ci95 = p.power_ci95;
    rec.hotspot = p.hotspot;
    rec.hotspot_share = p.hotspot_share;
    rec.crest = p.crest;
    rec.area = p.area;
    rec.stats = p.stats;
    rec.pareto = p.pareto;
    if (!p.pareto) {
      // The lowest-power dominating row: points are sorted by ascending
      // power, so the first power/area dominator found is it.
      for (const auto& q : r.points) {
        if (dominates_power_area(point_metrics(q), point_metrics(p))) {
          rec.dominated_by = q.label;
          break;
        }
      }
    }
    recs.push_back(std::move(rec));
  }
  return recs;
}

}  // namespace mcrtl::core
