#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> \
#     --trace <0|1>
#
# Run from the repository root. The build goes to $CARGO_TARGET_DIR when
# set, else .bench_build; build output goes to stderr, so the last line of
# stdout is the benchmark's JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
generator=()
if [[ ! -f "$build/CMakeCache.txt" ]] && command -v ninja >/dev/null 2>&1; then
  generator=(-G Ninja)
fi
cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target mcrtl_perfbench -j "$(nproc)" >&2
exec "$build/mcrtl_perfbench" "$@"
