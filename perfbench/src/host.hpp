// Host stamp printed with every benchmark output.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// JSON object naming the host and build that produced a result: nproc,
/// CPU model and SIMD flags from /proc/cpuinfo, compiler and version,
/// build type, plus the run's workload, seed and run length.
std::string host_stamp_json(const std::string& workload, std::uint64_t seed,
                            double seconds);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

}  // namespace perfbench
