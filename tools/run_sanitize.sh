#!/usr/bin/env bash
# Configure, build, and run the test suite under ASan + UBSan using
# the `sanitize` CMake preset (build-sanitize/, G5P_SANITIZE=ON).
#
# Usage:
#   tools/run_sanitize.sh                 # whole suite, sanitized
#   tools/run_sanitize.sh -R Checkpoint   # ctest filter passthrough
#   G5P_SANITIZE_JOBS=4 tools/run_sanitize.sh
#
# Any arguments are forwarded to ctest (e.g. -R <regex>, -j N,
# --rerun-failed). Every ctest pass runs even when an earlier one
# fails; the script then lists the failed passes and exits non-zero,
# so it wires directly into CI as a sanitizer job. A failed configure
# or build still stops it at once.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

jobs="${G5P_SANITIZE_JOBS:-$(nproc 2>/dev/null || echo 4)}"

# Run one ctest pass: `pass NAME CTEST-ARGS...`. A failure is recorded
# in failed_passes, not fatal, so the passes after it still run.
failed_passes=()
pass() {
    local name="$1"
    shift
    echo "== ctest $name =="
    if ! ctest "$@"; then
        failed_passes+=("$name")
    fi
}

echo "== configure (preset: sanitize) =="
cmake --preset sanitize

echo "== build (-j ${jobs}) =="
cmake --build --preset sanitize -j "$jobs"

# LeakSanitizer runs with ASan's defaults: every in-flight packet,
# event and sender-state record has an owner that frees it at
# simulator teardown, so any leak report is a real bug. The sanitize
# test preset sets UBSAN halt_on_error so any UB fails the run loudly.
pass "(preset: sanitize)" --preset sanitize "$@"

# The fault-injection/robustness suite doubles as a sanitizer stress
# test: dropped/delayed responses, injected I/O failures and watchdog
# exits walk the error paths normal runs never take, exactly where
# leaks and UB hide. Run it explicitly even when a filter narrowed
# the main pass.
if [ "$#" -gt 0 ]; then
    pass "robustness suite (preset: sanitize)" --preset sanitize \
        -R '^(Watchdog|FaultInjection|CrashSafety|TypedErrors)'
fi

# Profiler pass: the self-observability layer instruments the event
# loop's hottest path (beginService/endService) and the trace writer
# round-trips every stat and event name through JSON escaping. Run the
# profiler suite and the profiled example runs (ExampleProfile: every
# example that attaches a profiler, writing a Chrome trace) sanitized
# so that slice-ring bookkeeping, span nesting across
# checkpoint/restore and the string paths are exercised under
# ASan/UBSan even when a filter narrowed the main pass. The wall-clock
# ProfilerOverheadGate exists only in builds without a sanitizer
# (bench/CMakeLists.txt): its 2% bound is below ASan's own noise.
if [ "$#" -gt 0 ]; then
    pass "profiler suite (preset: sanitize)" --preset sanitize \
        -R '^(Profiler|RunOptionsApi|ExampleProfile)'
fi

# Sampling pass: the CPU-switch and sampling driver paths carry state
# across machine lifetimes (drain-and-switch, cross-model checkpoint
# transplants, an in-memory checkpoint farm that is thinned and
# flushed, manifest reuse) — prime territory for lifetime bugs. Run
# the switch/milestone/sampling suites sanitized even when a filter
# narrowed the main pass.
if [ "$#" -gt 0 ]; then
    pass "sampling suite (preset: sanitize)" --preset sanitize \
        -R '^(SwitchEquivalenceGate|CpuSwitch|InstMilestone|FastForward|Sampling)'
fi

# Coherence pass: the MSI/MESI machinery lives on heap packets and
# MSHRs handed between caches, the xbar, and the tester — use-after-
# free in a race-recovery path (stolen fills, upgrade reissues) is
# exactly what ASan catches and normal runs may survive by luck. Run
# the stress tester, litmus sweep, and multi-core regressions
# sanitized even when a filter narrowed the main pass.
if [ "$#" -gt 0 ]; then
    pass "coherence suite (preset: sanitize)" --preset sanitize \
        -R '^(CoherenceStress|CoherenceQuick|Litmus|ThreadedGuest|MultiCoreRegression)'
fi

# Timing memory-path pass (PR 10): the packet pool carves THP slabs
# into 64-byte blocks and recycles them LIFO, MSHRs live in a slab
# with intrusive free-listing, and the snoop filter/MSHR index do
# open addressing with backward-shift deletion — manual memory
# management stacked three deep, i.e. exactly what ASan/UBSan are
# for. The mid-flight checkpoint and teardown-drain tests end
# machines with packets still parked on events and MSHRs, so LSan
# sees every teardown path.
if [ "$#" -gt 0 ]; then
    pass "timing memory-path suite (preset: sanitize)" --preset sanitize \
        -R '^(AddrTable|PacketPool|PooledCheckpoint|PoolDrain|GoldenWorkloads)'
fi

# Front-end pass: the THP arenas hand out mmap-backed slabs that the
# event pool and decode cache carve up manually — prime ASan/UBSan
# territory — and FrontendDispatchGate runs two profiled simulations
# (hot layout and THP text off, then on) through the modeled Top-Down
# legs. The pattern also picks up Recorder.DispatchesToConsumers, the
# trace fan-out those runs feed.
if [ "$#" -gt 0 ]; then
    pass "front-end suite (preset: sanitize)" --preset sanitize \
        -R 'Dispatch'
fi

# Host-model pass: every host cache, TLB and µop-cache lookup indexes
# one TagStore block at set * 2 * assoc, and the branch predictor
# masks its table indices, so an off-by-one in a geometry reads past
# an array. The synthesizer indexes its site records by byte offset.
# Run the host-model suites, the TagStore oracle and the GoldenHost
# and GoldenTrace fixtures sanitized even when a filter narrowed the
# main pass.
if [ "$#" -gt 0 ]; then
    pass "host-model suite (preset: sanitize)" --preset sanitize \
        -R '^(TagStore|HostCache|HostTlb|Dsb|Uncore|BranchPredictor|Topdown|Platforms|Corun|GoldenHost|GoldenTrace)'
fi

# Sweep-service pass: the chaos suite walks the crash/retry/eviction
# paths on purpose — torn spool files, corrupt cache entries, a
# service killed between a cache store and the state transition —
# which is where use-after-free and uninitialized reads hide in a
# recovery codebase. The quick half smokes spool transitions and
# cold recovery sub-second. Run both sanitized even when a filter
# narrowed the main pass.
if [ "$#" -gt 0 ]; then
    pass "sweep-service suite (preset: sanitize)" --preset sanitize \
        -R '^(ServiceChaosGate|ServiceSupervision|ServiceCacheGate|ServiceResume|ServiceAdmission|ServiceIncoming|ServiceStop|ServiceJson|ServiceSpec|ServiceJobKey|ServiceSpool|ServiceCache)'
fi

# TSan pass: the parallel harness runs whole simulations on pool
# threads, so data races (not just leaks/UB) are the failure mode that
# matters there. TSan and ASan cannot share a build, so this is a
# separate preset (build-tsan/, G5P_THREADS=ON). Skippable for quick
# iteration with G5P_SKIP_TSAN=1; CI should always run it.
if [ "${G5P_SKIP_TSAN:-0}" != "1" ]; then
    echo "== configure (preset: tsan) =="
    cmake --preset tsan

    echo "== build (-j ${jobs}) =="
    cmake --build --preset tsan -j "$jobs"

    # Only the thread-bearing suites: the parallel determinism and
    # isolation tests exercise every cross-thread edge (registry
    # reads, pooled recorders, result hand-back), the checkpoint
    # suite covers restore inside a pooled job, and the sampling
    # driver runs its detailed intervals on the pool. The rest of the
    # suite is single-threaded and adds nothing under TSan but
    # runtime.
    # Coherence rides along: pooled sweeps may run multi-core guests,
    # so the protocol paths must also be clean under TSan. The sweep
    # service dispatches batches onto the same pool (and its commit
    # loop reads outcomes the workers wrote), so its suites ride
    # along too. FrontendDispatchGate (matched by `Dispatch`) joins
    # because its profiled runs hand the op stream to the host model
    # on a second thread.
    # The timing-path suites join because the packet pool and THP
    # arenas are thread-local by design — TSan proves no state leaks
    # across the pool threads that run whole simulations. The
    # PipelinedSink suite covers the ring every profiled run hands
    # its host model through: slot publication, the spin/block
    # handshake, failure propagation and teardown.
    pass "parallel suites (preset: tsan)" --preset tsan \
        -R '^(Parallel|Checkpoint|Sampling|Coherence|Service|PipelinedSink)|Dispatch|Pool'
fi

if [ ${#failed_passes[@]} -gt 0 ]; then
    echo "== failed passes ==" >&2
    printf '  %s\n' "${failed_passes[@]}" >&2
    exit 1
fi
echo "== all passes green =="
