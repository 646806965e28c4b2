#include "core/checkpoint.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/record.hpp"
#include "dfg/textio.hpp"
#include "util/fault_injection.hpp"
#include "util/strings.hpp"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace mcrtl::core {

namespace {

using record::encode_double;
using record::encode_str;
using record::encode_u64;
using record::fnv1a64;

// v4: DesignStats grew `period` (29 payload tokens) and the fingerprint
// covers per-configuration hashes (ExplorerConfig::explicit_configs). v3
// had added hotspot/hotspot_share/crest (28); v2 power_stddev/power_ci95
// (25). A journal from an older version no longer matches the magic and is
// treated as absent — the sweep starts fresh and overwrites it. The token
// codec itself lives in core/record.hpp, shared with the search layer's
// result cache.
constexpr const char* kMagic = "mcrtl-journal v4 fp=";

/// The journalled payload of one record, without the leading "p " and the
/// trailing checksum.
std::string record_payload(std::size_t index, const ExplorationPoint& p) {
  std::ostringstream os;
  os << index << ' ' << record::encode_point_fields(p);
  return os.str();
}

std::string record_line(std::size_t index, const ExplorationPoint& p) {
  const std::string payload = record_payload(index, p);
  return "p " + payload + ' ' + encode_u64(fnv1a64(payload)) + '\n';
}

/// Parse one complete record line. Returns false (leaving `index`/`point`
/// untouched as far as the caller is concerned) on any malformation.
bool parse_record(const std::string& line, std::size_t& index,
                  ExplorationPoint& point) {
  if (line.rfind("p ", 0) != 0) return false;
  const std::size_t crc_sep = line.rfind(' ');
  if (crc_sep == std::string::npos || crc_sep < 2) return false;
  const std::string payload = line.substr(2, crc_sep - 2);
  std::uint64_t crc = 0;
  if (!record::decode_u64(line.substr(crc_sep + 1), crc)) return false;
  if (crc != fnv1a64(payload)) return false;

  const auto toks = record::split_tokens(payload);
  if (toks.size() != 1 + record::kPointTokens) return false;
  char* end = nullptr;
  errno = 0;
  index = static_cast<std::size_t>(std::strtoull(toks[0].c_str(), &end, 10));
  if (errno != 0 || end == toks[0].c_str() || *end != '\0') return false;
  return record::decode_point_fields(toks, 1, point);
}

std::string header_line(std::uint64_t fp) {
  return std::string(kMagic) +
         str_format("%016llx", static_cast<unsigned long long>(fp)) + '\n';
}

/// Classify the first line of an existing journal file.
enum class HeaderState { Missing, Matches, Mismatch };

HeaderState read_header(const std::string& path, std::uint64_t fp) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return HeaderState::Missing;
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  const std::size_t nl = content.find('\n');
  // An incomplete first line (crash before the header fsync finished) is
  // treated as no journal at all.
  if (nl == std::string::npos) return HeaderState::Missing;
  const std::string first = content.substr(0, nl);
  if (first.rfind(kMagic, 0) != 0) return HeaderState::Missing;
  std::string expected = header_line(fp);
  expected.pop_back();  // drop the '\n'
  return first == expected ? HeaderState::Matches : HeaderState::Mismatch;
}

void fsync_file(std::FILE* f) {
  if (std::fflush(f) != 0) throw Error("journal flush failed");
#ifndef _WIN32
  if (::fsync(fileno(f)) != 0) throw Error("journal fsync failed");
#endif
}

/// Drop a torn tail (bytes after the last '\n') before reopening for
/// append. Without this, the first record a resumed run appends would
/// concatenate onto the partial line a SIGKILL left behind, corrupting a
/// *mid-file* record — which the tolerant loader treats as the end of the
/// journal and the strict loader rejects outright.
void truncate_torn_tail(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return;
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  if (content.empty() || content.back() == '\n') return;
  const std::size_t nl = content.find_last_of('\n');
  const std::size_t keep = nl == std::string::npos ? 0 : nl + 1;
#ifndef _WIN32
  if (::truncate(path.c_str(), static_cast<off_t>(keep)) == 0) return;
#endif
  // Fallback: rewrite the prefix.
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(keep));
}

}  // namespace

std::uint64_t measurement_fingerprint(const dfg::Graph& graph,
                                      const dfg::Schedule& sched,
                                      std::size_t computations,
                                      std::uint64_t seed, std::size_t streams,
                                      const power::PowerParams& params) {
  // v3: both levelized kernels drain a settle in (level, CompId) order, so a
  // point's crest can differ from a v2 record in the last bit. Journals and
  // caches written before that are stale, not mixable.
  std::ostringstream os;
  os << "mcrtl-explorer-v3\n" << dfg::serialize_dfg(graph, &sched) << '\n'
     << computations << ' ' << seed << ' ' << streams << ' '
     << encode_double(params.vdd) << ' ' << encode_double(params.f_master)
     << ' ' << encode_double(params.leakage_mw_per_mlambda2) << ' '
     << params.include_controller_fsm << '\n';
  return fnv1a64(os.str());
}

std::uint64_t CheckpointJournal::fingerprint(const ExplorerConfig& cfg,
                                             const dfg::Graph& graph,
                                             const dfg::Schedule& sched) {
  std::ostringstream os;
  os << encode_u64(measurement_fingerprint(graph, sched, cfg.computations,
                                           cfg.seed, cfg.streams,
                                           cfg.power_params))
     << '\n'
     << cfg.max_clocks << ' ' << cfg.include_conventional << ' '
     << cfg.include_split << ' ' << cfg.include_dff_variant << '\n';
  // The enumerated (label, config-hash) pairs pin the enumeration logic
  // itself — including explicit_configs lists, whose labels alone would
  // not determine the options: if a future library version (or a different
  // caller-supplied list) enumerates differently, old journals are stale.
  for (const auto& [opts, label] : enumerate_configurations(cfg)) {
    os << label << ' ' << encode_u64(config_hash(opts)) << '\n';
  }
  return fnv1a64(os.str());
}

CheckpointJournal::LoadResult CheckpointJournal::load(
    const std::string& path, std::uint64_t fp,
    const std::vector<std::pair<SynthesisOptions, std::string>>& configs) {
  fault::inject("journal.load");
  LoadResult res;
  res.points.resize(configs.size());
  switch (read_header(path, fp)) {
    case HeaderState::Missing:
      return res;
    case HeaderState::Mismatch:
      throw JournalMismatchError(
          "checkpoint journal '" + path +
          "' was written by a different exploration configuration; refusing "
          "to resume (delete it or pass a matching ExplorerConfig)");
    case HeaderState::Matches:
      break;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open checkpoint journal '" + path + "'");
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  std::size_t pos = content.find('\n') + 1;  // skip the verified header
  while (pos < content.size()) {
    const std::size_t nl = content.find('\n', pos);
    // A line without its terminating newline is the torn tail of a crashed
    // append: stop replaying here.
    if (nl == std::string::npos) break;
    const std::string line = content.substr(pos, nl - pos);
    pos = nl + 1;
    std::size_t index;
    ExplorationPoint point;
    // Append-only files can only be damaged at the tail, so the first bad
    // record ends the replay.
    if (!parse_record(line, index, point)) break;
    if (index >= configs.size() || point.label != configs[index].second) break;
    point.options = configs[index].first;
    point.pareto = false;  // recomputed after the sweep
    if (!res.points[index]) ++res.replayed;
    res.points[index] = std::move(point);
  }
  return res;
}

CheckpointJournal::LoadResult CheckpointJournal::load_strict(
    const std::string& path, std::uint64_t fp,
    const std::vector<std::pair<SynthesisOptions, std::string>>& configs) {
  LoadResult res;
  res.points.resize(configs.size());
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open shard journal '" + path + "'");
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  const std::size_t hdr_nl = content.find('\n');
  if (hdr_nl == std::string::npos) {
    throw JournalCorruptError("shard journal '" + path +
                              "' has no complete header line");
  }
  const std::string first = content.substr(0, hdr_nl);
  if (first.rfind(kMagic, 0) != 0) {
    throw JournalCorruptError("shard journal '" + path +
                              "' does not carry a journal header");
  }
  std::string expected = header_line(fp);
  expected.pop_back();
  if (first != expected) {
    throw JournalMismatchError(
        "shard journal '" + path +
        "' was written by a different exploration configuration (stale "
        "fingerprint " + first.substr(std::strlen(kMagic)) + ")");
  }
  if (!content.empty() && content.back() != '\n') {
    throw JournalCorruptError(
        "shard journal '" + path +
        "' ends in a torn record — the shard crashed mid-append and was "
        "never resumed to completion; re-run it before merging");
  }
  std::size_t pos = hdr_nl + 1;
  std::size_t lineno = 1;
  while (pos < content.size()) {
    const std::size_t nl = content.find('\n', pos);
    MCRTL_CHECK(nl != std::string::npos);  // torn tail excluded above
    const std::string line = content.substr(pos, nl - pos);
    pos = nl + 1;
    ++lineno;
    std::size_t index;
    ExplorationPoint point;
    if (!parse_record(line, index, point)) {
      throw JournalCorruptError("shard journal '" + path + "' line " +
                                std::to_string(lineno) +
                                ": malformed or checksum-failing record");
    }
    if (index >= configs.size()) {
      throw JournalCorruptError(
          "shard journal '" + path + "' line " + std::to_string(lineno) +
          ": index " + std::to_string(index) + " is outside the enumeration");
    }
    if (point.label != configs[index].second) {
      throw JournalCorruptError(
          "shard journal '" + path + "' line " + std::to_string(lineno) +
          ": label '" + point.label + "' does not match enumerated '" +
          configs[index].second + "' at index " + std::to_string(index));
    }
    if (res.points[index]) {
      throw JournalCorruptError("shard journal '" + path + "' line " +
                                std::to_string(lineno) + ": duplicate record "
                                "for index " + std::to_string(index));
    }
    point.options = configs[index].first;
    point.pareto = false;
    res.points[index] = std::move(point);
    ++res.replayed;
  }
  return res;
}

CheckpointJournal::CheckpointJournal(const std::string& path,
                                     std::uint64_t fp) {
  switch (read_header(path, fp)) {
    case HeaderState::Mismatch:
      throw JournalMismatchError("checkpoint journal '" + path +
                                 "' belongs to a different exploration");
    case HeaderState::Matches:
      truncate_torn_tail(path);
      f_ = std::fopen(path.c_str(), "ab");
      break;
    case HeaderState::Missing: {
      f_ = std::fopen(path.c_str(), "wb");
      if (!f_) break;
      const std::string hdr = header_line(fp);
      try {
        if (std::fwrite(hdr.data(), 1, hdr.size(), f_) != hdr.size()) {
          throw Error("journal header write failed");
        }
        fsync_file(f_);
      } catch (...) {
        std::fclose(f_);
        f_ = nullptr;
      }
      break;
    }
  }
}

CheckpointJournal::~CheckpointJournal() {
  std::lock_guard<std::mutex> lk(m_);
  if (f_) std::fclose(f_);
  f_ = nullptr;
}

bool CheckpointJournal::ok() const {
  std::lock_guard<std::mutex> lk(m_);
  return f_ != nullptr;
}

bool CheckpointJournal::append(std::size_t index,
                               const ExplorationPoint& point) {
  std::lock_guard<std::mutex> lk(m_);
  if (!f_) return false;
  const std::string line = record_line(index, point);
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      fault::inject("journal.append");
      // One fwrite per record keeps the torn-write window to a single line,
      // which load() is built to tolerate.
      if (std::fwrite(line.data(), 1, line.size(), f_) != line.size()) {
        throw Error("journal record write failed");
      }
      fsync_file(f_);
      return true;
    } catch (const std::exception&) {
      std::clearerr(f_);
    }
  }
  // Persistent I/O failure: stop journaling, keep sweeping.
  std::fclose(f_);
  f_ = nullptr;
  return false;
}

}  // namespace mcrtl::core
