#!/usr/bin/env bash
# Lists the src/*.cpp functions that no non-test entry point executes:
# deletion candidates, reached (if at all) only by their own unit tests.
#
#   tools/coverage/unreached.sh [build-dir]    (default: build-coverage)
#
# Builds the library, benches and examples with gcov instrumentation
# (tests and the linter off) into the build directory, compiles
# perfbench/carbonedge_perf.cpp against that library, then runs every entry
# point from a scratch directory inside it (output in
# coverage-run/entry-points.log):
#   - every bench, with CARBONEDGE_SMOKE_EPOCHS=64;
#   - the examples other than carbonedge_cli, with default arguments;
#   - cmake/determinism_smoke.cmake and cmake/store_smoke.cmake, which
#     drive carbonedge_cli;
#   - the three carbonedge_perf workloads, each cold and then resumed.
# Then prints "file:line function" for every function gcov saw execute
# zero times. On 4 cores the build takes about a minute, the runs another.
# Needs gcov matching the compiler, and python3.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
build=$(mkdir -p "${1:-$root/build-coverage}" && cd "${1:-$root/build-coverage}" && pwd)
jobs=$(nproc)

cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS='--coverage -O1' -DCMAKE_CXX_FLAGS_RELEASE=-DNDEBUG \
  -DCARBONEDGE_BUILD_TESTS=OFF -DCARBONEDGE_BUILD_TOOLS=OFF >/dev/null
cmake --build "$build" -j"$jobs" >/dev/null
cxx=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$build/CMakeCache.txt")
"$cxx" -std=c++20 --coverage -O1 -DNDEBUG -I"$root/src" \
  "$root/perfbench/carbonedge_perf.cpp" "$build/libcarbonedge.a" -pthread \
  -o "$build/carbonedge_perf"

# Counters accumulate across runs: start from zero, and keep every store
# and output the entry points write inside the build directory.
find "$build" -name '*.gcda' -delete
run="$build/coverage-run"
rm -rf "$run" && mkdir -p "$run" && cd "$run"
log="$run/entry-points.log"
trap 'echo "unreached.sh: an entry point failed; see $log" >&2' ERR
unset CARBONEDGE_STORE_DIR

for bench in "$build"/bench_*; do
  [[ -x $bench ]] || continue
  args=()
  case ${bench##*/} in
    bench_fig17_scalability | bench_overhead_system) args=(--benchmark_min_time=0.01) ;;
  esac
  CARBONEDGE_SMOKE_EPOCHS=64 "$bench" "${args[@]}" >>"$log" 2>&1
done
for example in quickstart carbon_explorer cdn_green_routing regional_testbed; do
  "$build/$example" >>"$log" 2>&1
done
cmake -DCLI="$build/carbonedge_cli" -DOUT_DIR="$run/determinism" \
  -P "$root/cmake/determinism_smoke.cmake" >>"$log" 2>&1
cmake -DCLI="$build/carbonedge_cli" -DSTORE_DIR="$run/store-smoke" \
  -P "$root/cmake/store_smoke.cmake" >>"$log" 2>&1
for workload in sweep_cdn_us serve_replay_cdn_us place_continent; do
  for phase in cold resume; do
    "$build/carbonedge_perf" "$workload" "$phase" --seed 0 --store "$run/perf-$workload" \
      >>"$log" 2>&1
  done
done

# One gcov JSON report per library object; an object without a .gcda was
# never executed, and gcov reports all of its functions at count zero.
find "$build/CMakeFiles/carbonedge.dir" -name '*.gcno' | sort |
  while read -r gcno; do
    gcov --json-format --stdout --demangled-names "$gcno" 2>/dev/null
  done |
  python3 -c '
import json, os, sys
root = sys.argv[1]
for line in sys.stdin:
    report = json.loads(line)
    for entry in report["files"]:
        path = os.path.relpath(os.path.join(report["current_working_directory"], entry["file"]), root)
        if not (path.startswith("src/") and path.endswith(".cpp")):
            continue
        for fn in sorted(entry["functions"], key=lambda f: f["start_line"]):
            if fn["execution_count"] == 0:
                print("%s:%d %s" % (path, fn["start_line"], fn["demangled_name"]))
' "$root"
