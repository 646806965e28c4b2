// bench_diff: compare a freshly produced BENCH_*.json against a committed
// baseline and fail on drift.
//
//   bench_diff <baseline.json> <fresh.json> [--tolerance R]
//
// Both files are flattened to dotted key paths (arrays by index) with a
// minimal recursive-descent scanner — the BENCH files are machine-written
// by our own benches, so the subset of JSON handled here is exactly what
// they emit. Keys are then split in two classes:
//
//  * noisy keys — wall-clock and derived throughput numbers (leaf name
//    contains "seconds", "pct", "stddev", "speedup", "per_sec", "_ms",
//    "mean", "overhead", "min", "max"). These must agree within a RATIO of
//    --tolerance (default 3x, generous because CI runners are shared);
//    readings where either side is under 100us are skipped as pure noise.
//  * structural keys — everything else (config counts, eval counts, guard
//    booleans, point totals). These must match EXACTLY: they are
//    deterministic outputs of the benches, and any change means the bench
//    or the kernel changed behaviour, not the machine.
//
// Keys under a top-level "host" block describe the machine that produced
// the file (cores, CPU, SIMD flags, compiler) and are ignored entirely:
// neither their values nor their presence (a CPU without AVX-512 lists
// fewer flags) is checked. Any other key present on one side only is an
// error (schema drift). Exit code 0 when clean, 1 on any violation; every
// violation is printed.
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Flat {
  std::map<std::string, double> nums;     // numbers and booleans (0/1)
  std::map<std::string, std::string> strs;
};

class Scanner {
 public:
  Scanner(const std::string& text, Flat& out) : s_(text), out_(out) {}

  bool parse() {
    skip_ws();
    if (!value("")) return false;
    skip_ws();
    return i_ == s_.size();
  }

 private:
  void skip_ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }

  bool value(const std::string& path) {
    skip_ws();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') return object(path);
    if (c == '[') return array(path);
    if (c == '"') {
      std::string str;
      if (!string_lit(&str)) return false;
      out_.strs[path] = str;
      return true;
    }
    if (std::strncmp(s_.c_str() + i_, "true", 4) == 0) {
      i_ += 4;
      out_.nums[path] = 1;
      return true;
    }
    if (std::strncmp(s_.c_str() + i_, "false", 5) == 0) {
      i_ += 5;
      out_.nums[path] = 0;
      return true;
    }
    if (std::strncmp(s_.c_str() + i_, "null", 4) == 0) {
      i_ += 4;
      return true;
    }
    // number (strtod accepts the full JSON numeric grammar and then some)
    char* end = nullptr;
    const double v = std::strtod(s_.c_str() + i_, &end);
    if (end == s_.c_str() + i_) return false;
    i_ = static_cast<std::size_t>(end - s_.c_str());
    out_.nums[path] = v;
    return true;
  }

  bool object(const std::string& path) {
    ++i_;  // '{'
    skip_ws();
    if (i_ < s_.size() && s_[i_] == '}') {
      ++i_;
      return true;
    }
    while (i_ < s_.size()) {
      skip_ws();
      std::string key;
      if (!string_lit(&key)) return false;
      skip_ws();
      if (i_ >= s_.size() || s_[i_] != ':') return false;
      ++i_;
      if (!value(path.empty() ? key : path + "." + key)) return false;
      skip_ws();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      if (i_ < s_.size() && s_[i_] == '}') {
        ++i_;
        return true;
      }
      return false;
    }
    return false;
  }

  bool array(const std::string& path) {
    ++i_;  // '['
    skip_ws();
    if (i_ < s_.size() && s_[i_] == ']') {
      ++i_;
      return true;
    }
    std::size_t idx = 0;
    while (i_ < s_.size()) {
      std::ostringstream p;
      p << path << '[' << idx++ << ']';
      if (!value(p.str())) return false;
      skip_ws();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      if (i_ < s_.size() && s_[i_] == ']') {
        ++i_;
        return true;
      }
      return false;
    }
    return false;
  }

  bool string_lit(std::string* out) {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    out->clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\' && i_ + 1 < s_.size()) {
        ++i_;
        switch (s_[i_]) {
          case 'n': *out += '\n'; break;
          case 't': *out += '\t'; break;
          default: *out += s_[i_];
        }
      } else {
        *out += s_[i_];
      }
      ++i_;
    }
    if (i_ >= s_.size()) return false;
    ++i_;  // closing quote
    return true;
  }

  const std::string& s_;
  std::size_t i_ = 0;
  Flat& out_;
};

bool load(const char* file, Flat& out) {
  std::ifstream in(file);
  if (!in) {
    std::fprintf(stderr, "bench_diff: cannot open %s\n", file);
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  Scanner sc(text, out);
  if (!sc.parse()) {
    std::fprintf(stderr, "bench_diff: %s is not valid JSON\n", file);
    return false;
  }
  return true;
}

/// Leaf name of a dotted path ("sliced.configs[3].sliced_timing.pct90" ->
/// "pct90").
std::string leaf(const std::string& path) {
  const auto dot = path.find_last_of('.');
  return dot == std::string::npos ? path : path.substr(dot + 1);
}

bool is_noisy(const std::string& path) {
  static const char* kMarkers[] = {
      "seconds", "pct",  "stddev",   "speedup", "per_sec", "per_second",
      "_ms",     "mean", "overhead", "min",     "max",     "throughput"};
  const std::string l = leaf(path);
  for (const char* m : kMarkers) {
    if (l.find(m) != std::string::npos) return true;
  }
  return false;
}

/// A rep-to-rep spread estimated from a handful of samples can swing by
/// orders of magnitude on a shared runner without any code change; it is
/// recorded for humans, never gated on.
bool is_informational(const std::string& path) {
  return leaf(path).find("stddev") != std::string::npos;
}

/// The producing host's description: recorded so a baseline says where it
/// came from, different in values and shape on every machine by design.
bool describes_host(const std::string& path) {
  return path.rfind("host.", 0) == 0;
}

/// Drops every host-description key, so no check ever sees one.
template <class Map>
void drop_host(Map& keys) {
  for (auto it = keys.begin(); it != keys.end();) {
    it = describes_host(it->first) ? keys.erase(it) : std::next(it);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* base_file = nullptr;
  const char* fresh_file = nullptr;
  double tolerance = 3.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      tolerance = std::atof(argv[++i]);
    } else if (!base_file) {
      base_file = argv[i];
    } else if (!fresh_file) {
      fresh_file = argv[i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_diff <baseline.json> <fresh.json> "
                   "[--tolerance R]\n");
      return 2;
    }
  }
  if (!base_file || !fresh_file || tolerance < 1.0) {
    std::fprintf(stderr,
                 "usage: bench_diff <baseline.json> <fresh.json> "
                 "[--tolerance R>=1]\n");
    return 2;
  }

  Flat base, fresh;
  if (!load(base_file, base) || !load(fresh_file, fresh)) return 2;
  for (Flat* f : {&base, &fresh}) {
    drop_host(f->nums);
    drop_host(f->strs);
  }

  int violations = 0;
  std::size_t compared_noisy = 0, compared_exact = 0, skipped_tiny = 0,
              skipped_info = 0;
  double worst_ratio = 1.0;
  std::string worst_key;

  // Schema: every key must exist on both sides.
  for (const auto& [k, v] : base.nums) {
    if (!fresh.nums.count(k)) {
      std::printf("MISSING in fresh: %s\n", k.c_str());
      ++violations;
    }
  }
  for (const auto& [k, v] : fresh.nums) {
    if (!base.nums.count(k)) {
      std::printf("MISSING in baseline: %s\n", k.c_str());
      ++violations;
    }
  }
  for (const auto& [k, v] : base.strs) {
    auto it = fresh.strs.find(k);
    if (it == fresh.strs.end()) {
      std::printf("MISSING in fresh: %s\n", k.c_str());
      ++violations;
    } else if (it->second != v && !is_noisy(k)) {
      std::printf("STRING DIFF %s: \"%s\" -> \"%s\"\n", k.c_str(), v.c_str(),
                  it->second.c_str());
      ++violations;
    }
  }

  for (const auto& [k, bv] : base.nums) {
    auto it = fresh.nums.find(k);
    if (it == fresh.nums.end()) continue;
    const double fv = it->second;
    if (is_noisy(k)) {
      // Wall readings in the single-millisecond band are dominated by
      // timer and scheduler granularity on a shared runner; ratios between
      // them are meaningless. Only if BOTH sides sit in the band is the
      // key skipped — a reading that leaves the band (a real
      // order-of-magnitude regression) is still compared.
      if (bv < 5e-3 && fv < 5e-3) {
        ++skipped_tiny;
        continue;
      }
      if (bv <= 0 || fv <= 0) {
        ++skipped_tiny;
        continue;
      }
      const double ratio = fv > bv ? fv / bv : bv / fv;
      if (is_informational(k)) {
        ++skipped_info;
        continue;
      }
      ++compared_noisy;
      if (ratio > worst_ratio) {
        worst_ratio = ratio;
        worst_key = k;
      }
      if (ratio > tolerance) {
        std::printf("DRIFT %s: %g -> %g (%.2fx, tolerance %.2fx)\n", k.c_str(),
                    bv, fv, ratio, tolerance);
        ++violations;
      }
    } else {
      ++compared_exact;
      if (bv != fv) {
        std::printf("STRUCTURAL DIFF %s: %g -> %g\n", k.c_str(), bv, fv);
        ++violations;
      }
    }
  }

  std::printf(
      "bench_diff: %zu exact keys, %zu noisy keys within %.2fx "
      "(worst %.2fx at %s), %zu tiny + %zu spread readings skipped, "
      "%d violation(s)\n",
      compared_exact, compared_noisy, tolerance, worst_ratio,
      worst_key.empty() ? "-" : worst_key.c_str(), skipped_tiny, skipped_info,
      violations);
  return violations == 0 ? 0 : 1;
}
