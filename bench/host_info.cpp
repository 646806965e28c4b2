#include "host_info.hpp"

#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#ifndef MCRTL_BUILD_TYPE
#define MCRTL_BUILD_TYPE "unknown"
#endif

namespace mcrtl::bench {

std::string host_json() {
  std::string model = "unknown";
  std::string flags;
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    const auto colon = line.find(':');
    if (colon == std::string::npos || colon + 2 > line.size()) continue;
    const std::string val = line.substr(colon + 2);
    if (line.rfind("model name", 0) == 0 && model == "unknown") model = val;
    if (line.rfind("flags", 0) == 0 && flags.empty()) flags = val;
  }
  std::vector<std::string> have;
  std::istringstream fs(flags);
  for (std::string f; fs >> f;) have.push_back(f);
  std::string simd;
  for (const char* want : {"popcnt", "bmi2", "avx2", "avx512f",
                           "avx512_vpopcntdq"}) {
    for (const auto& f : have) {
      if (f == want) {
        simd += (simd.empty() ? "\"" : ", \"") + f + "\"";
        break;
      }
    }
  }
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ostringstream os;
  os << "{\"cores\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": \"" << model << "\", \"simd\": [" << simd
     << "], \"compiler\": \"" << compiler << "\", \"build_type\": \""
     << MCRTL_BUILD_TYPE << "\"}";
  return os.str();
}

}  // namespace mcrtl::bench
