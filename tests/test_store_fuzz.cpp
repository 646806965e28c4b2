// Deterministic mutation fuzz of the point-store reader
// (core/checkpoint.hpp).
//
// Valid files — a cache DB (scope 0, rows and pruned markers) and a
// checkpoint file (scoped to a sweep, rows only) — are mutated with seeded
// byte flips, truncations, duplicated lines and swapped lines, and every
// mutant is read both ways:
//  * tolerant (load_and_compact): never crashes, throws nothing but
//    JournalMismatchError (a flipped scope digit), and never returns a
//    record that is not in the original file; a compacted rewrite reads
//    back strictly with exactly the records the tolerant load kept;
//  * strict (load_strict): throws one of the typed store errors, or returns
//    exactly the original records — exactly the records of the kept prefix
//    for a truncation that ends on a line boundary.
// Runs in CI under ASan+UBSan.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/record.hpp"
#include "util/rng.hpp"

using namespace mcrtl;

namespace {

constexpr int kMutantsPerOperator = 300;

struct Original {
  std::uint64_t scope = 0;
  std::vector<std::pair<std::uint64_t, core::ExplorationPoint>> rows;
  std::vector<std::pair<std::pair<std::uint64_t, std::uint64_t>,
                        core::ResultCache::PrunedMark>>
      marks;
  std::string bytes;
};

core::ExplorationPoint fuzz_point(std::uint64_t k) {
  core::ExplorationPoint p;
  p.label = "pt " + std::to_string(k) + " / \xc3\xa9";  // spaces, non-ASCII
  p.power.total = 1.0 / 3.0 + static_cast<double>(k);
  p.power.clock_tree = 0.125 * static_cast<double>(k);
  p.power_stddev = 1e-17 * static_cast<double>(k);
  p.area.total = 1000.0 + static_cast<double>(k);
  p.stats.period = 4 + static_cast<int>(k % 3);
  p.stats.num_clocks = 1 + static_cast<int>(k % 4);
  p.hotspot = "fu_" + std::to_string(k);
  p.crest = 1.5;
  return p;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

std::string payload(const core::ExplorationPoint& p) {
  return core::record::encode_point_fields(p);
}

/// A cache DB: rows and markers under scope 0, written by save().
Original cache_db(const std::string& path) {
  Original o;
  core::ResultCache c;
  for (std::uint64_t k = 1; k <= 8; ++k) {
    o.rows.emplace_back(0x1000 + k * 0x9e3779b97f4a7c15ull, fuzz_point(k));
    c.put_row(o.rows.back().first, o.rows.back().second);
  }
  for (std::uint64_t k = 1; k <= 3; ++k) {
    o.marks.push_back(
        {{k * 77, k * 1001},
         core::ResultCache::PrunedMark{static_cast<int>(k),
                                       "by " + std::to_string(k)}});
    c.put_pruned(k * 77, k * 1001, o.marks.back().second);
  }
  std::remove(path.c_str());
  EXPECT_TRUE(c.save(path));
  o.bytes = slurp(path);
  return o;
}

/// A checkpoint file: rows appended one batch at a time under a scope.
Original checkpoint(const std::string& path) {
  Original o;
  o.scope = 0x5eed5eed5eed5eedull;
  std::remove(path.c_str());
  core::ResultCache c;
  c.load_and_compact(path, o.scope);
  for (std::uint64_t k = 1; k <= 7; ++k) {
    o.rows.emplace_back(k * 0x100000001b3ull, fuzz_point(k + 20));
    const auto& [key, point] = o.rows.back();
    EXPECT_TRUE(c.append({{key, &point, 0, {}}}));
  }
  o.bytes = slurp(path);
  return o;
}

/// Every record `c` holds is one of `o`'s, byte for byte. Returns how many
/// of `o`'s records it holds.
std::size_t check_subset(const core::ResultCache& c, const Original& o) {
  std::size_t rows = 0, marks = 0;
  for (const auto& [key, p] : o.rows) {
    if (const auto* q = c.find_row(key)) {
      ++rows;
      EXPECT_EQ(payload(*q), payload(p)) << "key " << key;
    }
  }
  for (const auto& [fk, m] : o.marks) {
    if (const auto* q = c.find_pruned(fk.first, fk.second)) {
      ++marks;
      EXPECT_EQ(q->rung, m.rung);
      EXPECT_EQ(q->dominated_by, m.dominated_by);
    }
  }
  EXPECT_EQ(c.num_rows(), rows) << "a row that is not in the original file";
  EXPECT_EQ(c.num_pruned(), marks) << "a marker not in the original file";
  return rows + marks;
}

std::vector<std::string> split_lines(const std::string& bytes) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::size_t nl = bytes.find('\n', pos);
    const std::size_t end = nl == std::string::npos ? bytes.size() : nl + 1;
    lines.push_back(bytes.substr(pos, end - pos));
    pos = end;
  }
  return lines;
}

std::string join(const std::vector<std::string>& lines) {
  std::string s;
  for (const auto& l : lines) s += l;
  return s;
}

/// One mutant. `strict_expect` is the number of records a strict load
/// must return if it does not throw (SIZE_MAX: all of the original's).
struct Mutant {
  std::string bytes;
  std::size_t strict_expect;
};

using Mutator = std::function<Mutant(Rng&, const Original&)>;

void fuzz(const Original& o, const std::string& path, const Mutator& mutate,
          std::uint64_t seed) {
  const std::size_t total = o.rows.size() + o.marks.size();
  Rng rng(seed);
  for (int m = 0; m < kMutantsPerOperator; ++m) {
    const Mutant mu = mutate(rng, o);
    SCOPED_TRACE("seed " + std::to_string(seed) + " mutant " +
                 std::to_string(m));

    spit(path, mu.bytes);
    try {
      core::ResultCache tolerant;
      const auto st = tolerant.load_and_compact(path, o.scope);
      const std::size_t kept = check_subset(tolerant, o);
      if (st.rewritten) {
        core::ResultCache back;
        const auto sst = back.load_strict(path, o.scope);
        EXPECT_EQ(sst.records, kept);
        EXPECT_EQ(check_subset(back, o), kept);
      }
    } catch (const core::JournalMismatchError&) {
      // A flipped scope digit: a stale file, refused rather than mixed.
    }

    spit(path, mu.bytes);
    core::ResultCache strict;
    bool threw = false;
    try {
      strict.load_strict(path, o.scope);
    } catch (const core::JournalCorruptError&) {
      threw = true;
    } catch (const core::JournalMismatchError&) {
      threw = true;
    } catch (const core::MergeError&) {
      threw = true;
    }
    if (threw) continue;
    const std::size_t got = check_subset(strict, o);
    // A mutation may leave the file intact in substance (e.g. swapping two
    // record lines); then the strict load must return every record.
    EXPECT_EQ(got, mu.strict_expect == SIZE_MAX ? total : mu.strict_expect);
  }
}

Mutant flip_byte(Rng& rng, const Original& o) {
  Mutant mu{o.bytes, SIZE_MAX};
  const std::size_t pos = rng.next_below(o.bytes.size());
  mu.bytes[pos] = static_cast<char>(mu.bytes[pos] ^ (1 + rng.next_below(255)));
  return mu;
}

Mutant truncate_tail(Rng& rng, const Original& o) {
  Mutant mu{o.bytes.substr(0, rng.next_below(o.bytes.size())), SIZE_MAX};
  if (!mu.bytes.empty() && mu.bytes.back() == '\n') {
    // Whole lines cut off: undetectable per file (merge's coverage check
    // catches it), so the strict load returns the kept records.
    const auto lines = split_lines(mu.bytes);
    mu.strict_expect = lines.size() - 1;
  }
  return mu;
}

Mutant duplicate_line(Rng& rng, const Original& o) {
  auto lines = split_lines(o.bytes);
  const std::size_t i = rng.next_below(lines.size());
  lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
  // A duplicated record agrees with itself; a duplicated header is not a
  // record.
  return Mutant{join(lines),
                i == 0 ? SIZE_MAX : o.rows.size() + o.marks.size()};
}

Mutant swap_lines(Rng& rng, const Original& o) {
  auto lines = split_lines(o.bytes);
  const std::size_t i = rng.next_below(lines.size());
  std::size_t j = rng.next_below(lines.size() - 1);
  if (j >= i) ++j;
  std::swap(lines[i], lines[j]);
  return Mutant{join(lines),
                i == 0 || j == 0 ? SIZE_MAX : o.rows.size() + o.marks.size()};
}

}  // namespace

TEST(StoreFuzz, MutantsNeverCrashNorInventRecords) {
  const std::string src = ::testing::TempDir() + "store_fuzz_src.db";
  const std::string path = ::testing::TempDir() + "store_fuzz.db";
  const Original files[] = {cache_db(src), checkpoint(src)};
  const Mutator ops[] = {flip_byte, truncate_tail, duplicate_line, swap_lines};
  std::uint64_t seed = 1;
  for (const auto& o : files) {
    ASSERT_GT(o.bytes.size(), 100u);
    for (const auto& op : ops) fuzz(o, path, op, seed++);
  }
  std::remove(src.c_str());
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}
