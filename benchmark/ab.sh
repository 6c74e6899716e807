#!/usr/bin/env bash
# A/B timing of this tree against a base revision, by the rule in
# benchmark/README.md ("Claiming a gain").
#
#   bash benchmark/ab.sh BASE-REV [--pairs N] [--workload W]...
#
# Exports BASE-REV with `git archive` into build/ab/base-<sha> (a clean
# tree; the repository's worktree list is left alone), copies this
# benchmark/ and BENCHMARK.json over it so both sides run identical
# benchmark code, and builds both trees. For each workload (default:
# all) it then runs N >= 10 pairs of parent and change, alternating
# which side runs first, with seed = pair index and the run length
# BENCHMARK.json fixes, and prints each side's
# median and quartiles, the change's win fraction, the parent's IQR
# and a verdict per end-to-end metric, and checks that both sides
# print identical stats and host-counter digests in every pair. Full run logs are kept in
# build/ab/<sha>-runs.log.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

if [ $# -lt 1 ] || [[ "$1" == --* ]]; then
    echo "usage: ab.sh BASE-REV [--pairs N] [--workload W]..." >&2
    exit 2
fi
sha="$(git -C "$root" rev-parse --verify "$1^{commit}")"
shift
pairs=10
workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --workload) workloads+=("$2"); shift 2 ;;
        *) echo "ab.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
done
if [ "$pairs" -lt 10 ]; then
    echo "ab.sh: at least 10 pairs are needed to claim anything" >&2
    exit 2
fi
tool=(python3 "$here/ledger_tool.py" "$root/BENCHMARK.json")
if [ ${#workloads[@]} -eq 0 ]; then
    read -r -a workloads <<< "$("${tool[@]}" workloads)"
fi
seconds="$("${tool[@]}" run-seconds)"

out="$root/build/ab"
base="$out/base-${sha:0:12}"
if [ ! -f "$base/src/CMakeLists.txt" ]; then
    rm -rf "$base"
    mkdir -p "$base"
    git -C "$root" archive "$sha" | tar -x -C "$base"
fi
rm -rf "$base/benchmark"
cp -R "$here" "$base/benchmark"
cp "$root/BENCHMARK.json" "$base/BENCHMARK.json"

build() {
    if [ ! -f "$1/build/benchmark/CMakeCache.txt" ]; then
        cmake -S "$1/benchmark" -B "$1/build/benchmark" \
            -DCMAKE_BUILD_TYPE=Release >&2
    fi
    cmake --build "$1/build/benchmark" --target perf_ledger -j 4 >&2
}
build "$base"
build "$root"

declare -A bin=([parent]="$base/build/benchmark/perf_ledger"
                [change]="$root/build/benchmark/perf_ledger")
declare -A rev=([parent]="${sha:0:12}"
                [change]="$(git -C "$root" rev-parse --short=12 HEAD)+tree")
results="$out/${sha:0:12}-results.tsv"
log="$out/${sha:0:12}-runs.log"
: > "$results"
: > "$log"
for w in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        order=(parent change)
        [ $((i % 2)) = 1 ] && order=(change parent)
        for side in "${order[@]}"; do
            run="$("${bin[$side]}" --workload "$w" --seed "$i" \
                     --seconds "$seconds" --rev "${rev[$side]}")" || true
            printf '== %s pair %d %s\n%s\n' "$w" "$i" "$side" "$run" >> "$log"
            printf '%s\t%d\t%s\t%s\t%s\n' "$side" "$i" "$w" \
                "$(grep '^digest ' <<< "$run" | sort | tr '\n' ';')" \
                "$(tail -n 1 <<< "$run")" >> "$results"
        done
        echo "ab: $w pair $((i + 1))/$pairs done" >&2
    done
done
"${tool[@]}" ab "$results"
