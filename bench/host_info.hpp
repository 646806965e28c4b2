// Host stamp for the committed BENCH_*.json files: a wall-clock baseline
// means nothing without the machine that produced it.
#pragma once

#include <string>

namespace mcrtl::bench {

/// JSON object describing this host and build: logical cores, CPU model,
/// the SIMD extensions the kernels could use, compiler and build type.
std::string host_json();

}  // namespace mcrtl::bench
