#!/usr/bin/env bash
# Build and run the repository benchmark (see benchmark/README.md).
#
#   bash benchmark/run.sh [--workload W]... [--seed N] [--seconds S]
#                         [--trace 0|1] [--smoke]
#
# Configures and builds benchmark/ into build/benchmark (build output
# goes to stderr), then runs perf_ledger once per workload, each in its
# own process. Without --workload every workload in BENCHMARK.json runs
# in turn. Each run prints its host fingerprint, every metric by name
# with its unit, and ends with a one-line JSON result.
#
# `--workload W --seed N --seconds S --trace 0|1` is the interface a
# benchmark harness runs BENCHMARK.json's command with; --seconds
# defaults to BENCHMARK.json's run_seconds.
#
# --smoke runs every workload at tiny scales, untraced and traced, and
# fails unless each run is correct and reports every metric that
# BENCHMARK.json declares for its mode with a finite value.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build/benchmark"
tool=(python3 "$here/ledger_tool.py" "$root/BENCHMARK.json")

workloads=()
seed=0
trace=0
smoke=0
seconds="$("${tool[@]}" run-seconds)"
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workloads+=("$2"); shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --smoke) smoke=1; shift ;;
        *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
done

if [ ! -f "$root/src/CMakeLists.txt" ]; then
    echo "run.sh: $root is not a gem5prof checkout (no src/)" >&2
    exit 1
fi
# Keep the compiler's temporary files inside the checkout too.
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target perf_ledger -j 4 >&2

if [ ${#workloads[@]} -eq 0 ]; then
    read -r -a workloads <<< "$("${tool[@]}" workloads)"
fi
rev="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
       git -C "$root" rev-parse --short HEAD 2>/dev/null || echo none)"

if [ "$smoke" = 0 ]; then
    for w in "${workloads[@]}"; do
        "$build/perf_ledger" --workload "$w" --seed "$seed" \
            --trace "$trace" --rev "$rev" --seconds "$seconds"
    done
    exit 0
fi

start=$SECONDS
status=0
for w in "${workloads[@]}"; do
    for t in 0 1; do
        out="$("$build/perf_ledger" --workload "$w" --seed "$seed" \
                 --trace "$t" --rev "$rev" --smoke --seconds 0.2)" \
            || status=1
        printf '%s\n' "$out"
        if ! tail -n 1 <<< "$out" | "${tool[@]}" check "$t"; then
            echo "SMOKE FAIL $w trace=$t" >&2
            status=1
        fi
    done
done
echo "smoke: ${#workloads[@]} workloads in $((SECONDS - start)) s," \
     "$([ $status = 0 ] && echo pass || echo FAIL)"
exit $status
