#!/usr/bin/env bash
# Two-phase PGO driver for mg5 (PR 9).
#
#   tools/pgo.sh [training-command...]
#
# 1. Configures + builds the pgo-gen preset (instrumented).
# 2. Runs the training workload — by default one workload on all four
#    CPU models plus one profiled simulation, i.e. the event loop, the
#    CPU models, the memory path and the profiling pipeline. Pass a
#    custom command to train on something else.
# 3. Reconfigures the same tree as pgo-use and rebuilds, consuming
#    the .gcda profiles left in place by step 2.
#
# The result lives in build-pgo/. Compare against a plain release
# build by running the same command from build-pgo/ and build/, e.g.
# examples/quickstart sieve 1.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== PGO phase 1: instrumented build (pgo-gen)"
cmake --preset pgo-gen
cmake --build --preset pgo-gen -j"$(nproc)"

echo "== PGO phase 2: training run"
if [ "$#" -gt 0 ]; then
    "$@"
else
    # Default training: quickstart runs every CPU model through the
    # event loop and memory path; profile_simulation adds the trace
    # recorder, synthesizer and host model.
    ./build-pgo/examples/quickstart sieve 0.25 >/dev/null
    ./build-pgo/examples/profile_simulation sieve timing 0.25 >/dev/null
fi

echo "== PGO phase 3: optimized rebuild (pgo-use)"
cmake --preset pgo-use
cmake --build --preset pgo-use -j"$(nproc)"

echo "PGO build ready in build-pgo/"
