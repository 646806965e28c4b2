#include "core/checkpoint.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/record.hpp"
#include "core/synthesizer.hpp"
#include "dfg/textio.hpp"
#include "util/fault_injection.hpp"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace mcrtl::core {

namespace {

using record::encode_double;
using record::encode_str;
using record::encode_u64;
using record::fnv1a64;

// One format for checkpoint files and cache DBs. Files in the formats it
// replaced ("mcrtl-journal v4", "mcrtl-cache v1") carry a foreign header:
// they read as absent or cold and the first append replaces them.
constexpr const char* kMagic = "mcrtl-store v1 fp=";

std::string header_line(std::uint64_t scope) {
  return kMagic + encode_u64(scope) + '\n';
}

/// The scope of a header line (without '\n'); false if it is not one.
bool parse_header(const std::string& first, std::uint64_t& scope) {
  const std::size_t n = std::strlen(kMagic);
  return first.size() == n + 16 && first.compare(0, n, kMagic) == 0 &&
         record::decode_u64(first.substr(n), scope);
}

std::string record_line(const ResultCache::Record& r) {
  std::string payload;
  if (r.point) {
    payload = encode_u64(r.key) + ' ' + record::encode_point_fields(*r.point);
  } else {
    payload = encode_u64(r.sweep_fp) + ' ' + encode_u64(r.key) + ' ' +
              std::to_string(r.mark.rung) + ' ' +
              encode_str(r.mark.dominated_by);
  }
  return (r.point ? "r " : "x ") + payload + ' ' +
         encode_u64(fnv1a64(payload)) + '\n';
}

/// A decoded record line.
struct Parsed {
  bool row = false;
  std::uint64_t key = 0;
  std::uint64_t sweep_fp = 0;
  ExplorationPoint point;
  ResultCache::PrunedMark mark;
};

/// The one record-line parser: kind, checksum, then fields of a complete
/// line (without its '\n'). False on any malformation.
bool parse_line(const std::string& line, Parsed& out) {
  out.row = line.rfind("r ", 0) == 0;
  if (!out.row && line.rfind("x ", 0) != 0) return false;
  const std::size_t crc_sep = line.rfind(' ');
  if (crc_sep < 2) return false;
  const std::string payload = line.substr(2, crc_sep - 2);
  std::uint64_t crc = 0;
  if (!record::decode_u64(line.substr(crc_sep + 1), crc) ||
      crc != fnv1a64(payload)) {
    return false;
  }
  const auto toks = record::split_tokens(payload);
  if (out.row) {
    return toks.size() == 1 + record::kPointTokens &&
           record::decode_u64(toks[0], out.key) &&
           record::decode_point_fields(toks, 1, out.point);
  }
  if (toks.size() != 4 || !record::decode_u64(toks[0], out.sweep_fp) ||
      !record::decode_u64(toks[1], out.key) ||
      !record::decode_str(toks[3], out.mark.dominated_by)) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const long rung = std::strtol(toks[2].c_str(), &end, 10);
  if (errno != 0 || end == toks[2].c_str() || *end != '\0') return false;
  out.mark.rung = static_cast<int>(rung);
  return true;
}

/// Two rows agree when everything measured agrees. The label is not
/// compared: duplicate configurations under two labels share one key.
bool same_measurement(ExplorationPoint a, ExplorationPoint b) {
  a.label.clear();
  b.label.clear();
  return record::encode_point_fields(a) == record::encode_point_fields(b);
}

bool slurp(const std::string& path, std::string& content) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  content.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  return true;
}

void flush_and_sync(std::FILE* f) {
  if (std::fflush(f) != 0) throw Error("point store flush failed");
#ifndef _WIN32
  if (::fsync(fileno(f)) != 0) throw Error("point store fsync failed");
#endif
}

}  // namespace

std::uint64_t measurement_fingerprint(const dfg::Graph& graph,
                                      const dfg::Schedule& sched,
                                      std::size_t computations,
                                      std::uint64_t seed, std::size_t streams,
                                      const power::PowerParams& params) {
  // v4: crest is computed from exact fixed-point step energies
  // (sim/power_probe.hpp), so a point's crest can differ from a v3 record
  // in the last bits. Stores written before that are stale, not mixable.
  std::ostringstream os;
  os << "mcrtl-explorer-v4\n" << dfg::serialize_dfg(graph, &sched) << '\n'
     << computations << ' ' << seed << ' ' << streams << ' '
     << encode_double(params.vdd) << ' ' << encode_double(params.f_master)
     << ' ' << encode_double(params.leakage_mw_per_mlambda2) << ' '
     << params.include_controller_fsm << '\n';
  return fnv1a64(os.str());
}

std::uint64_t sweep_fingerprint(const ExplorerConfig& cfg,
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
  // caller-supplied list) enumerates differently, old checkpoints are stale.
  for (const auto& [opts, label] : enumerate_configurations(cfg)) {
    os << label << ' ' << encode_u64(config_hash(opts)) << '\n';
  }
  return fnv1a64(os.str());
}

// ---- reading ----------------------------------------------------------------

ResultCache::LoadStats ResultCache::read(const std::string& path,
                                         std::uint64_t scope, bool strict) {
  LoadStats st;
  auto corrupt = [&](const std::string& what) {
    throw JournalCorruptError("point store '" + path + "' " + what);
  };
  std::string content;
  if (!slurp(path, content)) {
    if (strict) throw Error("cannot open point store '" + path + "'");
    return st;
  }
  if (content.empty() && !strict) return st;
  const std::size_t hdr_nl = content.find('\n');
  std::uint64_t file_scope = 0;
  if (hdr_nl == std::string::npos ||
      !parse_header(content.substr(0, hdr_nl), file_scope)) {
    // A foreign, old or damaged header: nothing in this file can be
    // trusted. Resume and the caches start cold; a merge refuses.
    if (strict) corrupt("does not start with a valid '" +
                        std::string(kMagic) + "' header");
    st.bad_lines = 1;
    return st;
  }
  if (file_scope != scope) {
    throw JournalMismatchError(
        "point store '" + path + "' belongs to " +
        (file_scope == 0
             ? std::string("no sweep (a cache DB)")
             : "another sweep (scope " + encode_u64(file_scope) + ")") +
        ", expected " +
        (scope == 0 ? std::string("a cache DB")
                    : "scope " + encode_u64(scope)) +
        "; refusing to mix measurements (delete it or pass a matching "
        "configuration)");
  }
  if (strict && content.back() != '\n') {
    corrupt("ends in a torn record — the writer crashed mid-append and was "
            "never resumed to completion; re-run it first");
  }
  std::size_t lineno = 1;
  for (std::size_t pos = hdr_nl + 1; pos < content.size();) {
    const std::size_t nl = content.find('\n', pos);
    ++lineno;
    Parsed rec;
    // A line without its newline is the torn tail of a crashed append.
    if (nl == std::string::npos ||
        !parse_line(content.substr(pos, nl - pos), rec)) {
      if (strict) {
        corrupt("line " + std::to_string(lineno) +
                ": malformed or checksum-failing record");
      }
      ++st.bad_lines;
      if (nl == std::string::npos) break;
      pos = nl + 1;
      continue;
    }
    pos = nl + 1;
    ++st.records;
    auto disagree = [&] {
      throw MergeError("point store '" + path + "' line " +
                       std::to_string(lineno) + " disagrees with an earlier "
                       "record for key " + encode_u64(rec.key) +
                       " — the files did not come from the same sweep");
    };
    if (rec.row) {
      const auto [it, fresh] = rows_.try_emplace(rec.key, rec.point);
      if (fresh) continue;
      if (strict && !same_measurement(it->second, rec.point)) disagree();
      ++st.superseded;
      it->second = std::move(rec.point);
    } else {
      const auto [it, fresh] =
          pruned_.try_emplace({rec.sweep_fp, rec.key}, rec.mark);
      if (fresh) continue;
      if (strict && (it->second.rung != rec.mark.rung ||
                     it->second.dominated_by != rec.mark.dominated_by)) {
        disagree();
      }
      ++st.superseded;
      it->second = std::move(rec.mark);
    }
  }
  return st;
}

std::size_t ResultCache::load(const std::string& path) {
  return read(path, /*scope=*/0, /*strict=*/false).bad_lines;
}

ResultCache::LoadStats ResultCache::load_and_compact(
    const std::string& path, std::uint64_t scope) {
  {
    std::lock_guard<std::mutex> lk(io_m_);
    if (f_) std::fclose(f_);
    f_ = nullptr;
    path_ = path;
    persist_ = true;
  }
  scope_ = scope;
  fault::inject("journal.load");
  // Parse into a scratch cache so the duplicate count reflects the file
  // alone, not records this cache already held.
  ResultCache scratch;
  scratch.scope_ = scope;
  LoadStats st = scratch.read(path, scope, /*strict=*/false);
  if ((st.bad_lines > 0 || st.superseded > 0) && st.records > 0) {
    st.rewritten = scratch.save(path);
  }
  for (auto& [key, p] : scratch.rows_) rows_[key] = std::move(p);
  for (auto& [key, m] : scratch.pruned_) pruned_[key] = std::move(m);
  return st;
}

ResultCache::LoadStats ResultCache::load_strict(const std::string& path,
                                                std::uint64_t scope) {
  return read(path, scope, /*strict=*/true);
}

// ---- in memory --------------------------------------------------------------

const ExplorationPoint* ResultCache::find_row(std::uint64_t key) const {
  const auto it = rows_.find(key);
  return it == rows_.end() ? nullptr : &it->second;
}

const ResultCache::PrunedMark* ResultCache::find_pruned(
    std::uint64_t sweep_fp, std::uint64_t key) const {
  const auto it = pruned_.find({sweep_fp, key});
  return it == pruned_.end() ? nullptr : &it->second;
}

void ResultCache::put_row(std::uint64_t key, const ExplorationPoint& p) {
  rows_[key] = p;
}

void ResultCache::put_pruned(std::uint64_t sweep_fp, std::uint64_t key,
                             const PrunedMark& mark) {
  pruned_[{sweep_fp, key}] = mark;
}

// ---- writing ----------------------------------------------------------------

ResultCache::~ResultCache() {
  if (f_) std::fclose(f_);
}

/// Open the bound store for appending (io_m_ held): truncate it when it is
/// missing, empty or foreign and return the header the first write must
/// carry; otherwise drop a torn tail — the bytes after the last '\n' a
/// crashed or failed append left — so the next record starts on a line of
/// its own, and return "".
std::string ResultCache::open_store() {
  std::string content;
  slurp(path_, content);
  const std::size_t hdr_nl = content.find('\n');
  std::uint64_t scope = 0;
  if (hdr_nl == std::string::npos ||
      !parse_header(content.substr(0, hdr_nl), scope)) {
    f_ = std::fopen(path_.c_str(), "wb");
    if (!f_) throw Error("cannot create point store '" + path_ + "'");
    return header_line(scope_);
  }
  if (scope != scope_) {
    throw JournalMismatchError("point store '" + path_ +
                               "' changed scope while bound");
  }
  if (content.back() != '\n') {
    const std::size_t keep = content.find_last_of('\n') + 1;
#ifndef _WIN32
    if (::truncate(path_.c_str(), static_cast<off_t>(keep)) != 0)
#endif
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(content.data(), static_cast<std::streamsize>(keep));
      if (!out) throw Error("cannot truncate point store '" + path_ + "'");
    }
  }
  f_ = std::fopen(path_.c_str(), "ab");
  if (!f_) throw Error("cannot open point store '" + path_ + "'");
  return "";
}

bool ResultCache::append(const std::vector<Record>& batch) {
  std::lock_guard<std::mutex> lk(io_m_);
  for (const Record& r : batch) {
    if (r.point) {
      put_row(r.key, *r.point);
    } else {
      put_pruned(r.sweep_fp, r.key, r.mark);
    }
  }
  if (!persist_) return false;
  std::string bytes;
  for (const Record& r : batch) bytes += record_line(r);
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      fault::inject("journal.append");
      const std::string out = f_ ? bytes : open_store() + bytes;
      // One fwrite per batch keeps the torn-write window to the batch's
      // tail, which every reader tolerates or reports.
      if (std::fwrite(out.data(), 1, out.size(), f_) != out.size()) {
        throw Error("point store write failed");
      }
      flush_and_sync(f_);
      return true;
    } catch (const std::exception&) {
      // Reopen on the retry: open_store() drops whatever partial line the
      // failed write left behind.
      if (f_) std::fclose(f_);
      f_ = nullptr;
    }
  }
  // Persistent I/O failure: stop persisting, keep sweeping.
  persist_ = false;
  return false;
}

bool ResultCache::save(const std::string& path) const {
  std::ostringstream os;
  os << header_line(scope_);
  for (const auto& [key, p] : rows_) os << record_line({key, &p, 0, {}});
  for (const auto& [fpkey, mark] : pruned_) {
    os << record_line({fpkey.second, nullptr, fpkey.first, mark});
  }
  // tmp + rename keeps a reader (or a crashed writer) from ever seeing a
  // half-written file: either the old one or the complete new one.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    const std::string body = os.str();
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace mcrtl::core
