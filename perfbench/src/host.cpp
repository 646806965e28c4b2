#include "host.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

std::string host_stamp_json(const std::string& workload, std::uint64_t seed,
                            double seconds) {
  std::string model = "unknown";
  std::string flags;
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string val = line.substr(std::min(colon + 2, line.size()));
    if (line.rfind("model name", 0) == 0 && model == "unknown") model = val;
    if (line.rfind("flags", 0) == 0 && flags.empty()) flags = val;
  }
  static const std::vector<std::string> kSimd = {
      "sse4_2", "popcnt", "avx", "avx2", "bmi2", "avx512f", "avx512bw",
      "avx512vl", "avx512_vpopcntdq"};
  std::string simd;
  std::istringstream fs(flags);
  std::vector<std::string> have;
  for (std::string f; fs >> f;) have.push_back(f);
  for (const auto& want : kSimd) {
    for (const auto& f : have) {
      if (f == want) {
        simd += (simd.empty() ? "\"" : ", \"") + want + "\"";
        break;
      }
    }
  }
  std::ostringstream os;
  os << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
     << ", \"run_seconds\": " << seconds
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": \"" << model << "\", \"simd\": [" << simd
     << "], \"compiler\": \"" << compiler() << "\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\"}";
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
