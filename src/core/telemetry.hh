/**
 * @file
 * Telemetry export: turns what sim::Profiler collected into artifacts
 * a human can look at —
 *
 *  - Chrome trace_event JSON (open in Perfetto / chrome://tracing):
 *    per-event wall-clock slices on one thread track per SimObject,
 *    checkpoint/watchdog/run spans, error instants carrying the
 *    flight-recorder tail, and events/sec / queue-depth / slowdown
 *    counter tracks. Multiple sessions (e.g. quickstart's four CPU
 *    models) become separate trace processes in one file.
 *
 *  - A unified host-profile table: the same ranked-share format for
 *    the paper's modeled hot-function profile (Fig 15) and a real
 *    self-profile, so both report through one pipeline.
 */

#ifndef G5P_CORE_TELEMETRY_HH
#define G5P_CORE_TELEMETRY_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/profiler.hh"
#include "sim/stats.hh"

namespace g5p::core
{

/** One profiled run in a trace file (a trace "process"). */
struct TraceSession
{
    std::string label;             ///< e.g. "O3" or "Intel_Xeon"
    const sim::Profiler *profiler; ///< collected data (not owned)
};

/**
 * Write a Chrome trace_event JSON for @p sessions. @p stats, when
 * given, is flattened (via the stats visitor) into otherData so the
 * final simulated-machine counters travel with the host profile.
 */
void writeChromeTrace(std::ostream &os,
                      const std::vector<TraceSession> &sessions,
                      const sim::stats::Group *stats = nullptr);

/** Single-session convenience. */
void writeChromeTrace(std::ostream &os, const sim::Profiler &profiler,
                      const std::string &label = "mg5",
                      const sim::stats::Group *stats = nullptr);

/**
 * Write to @p path; warns and returns false on I/O failure (telemetry
 * must never kill a finished simulation).
 */
bool writeChromeTraceFile(const std::string &path,
                          const std::vector<TraceSession> &sessions,
                          const sim::stats::Group *stats = nullptr);

/** One row of a host profile: a function or an event class. */
struct HostProfileRow
{
    std::string name;
    double weight;  ///< self time in `unit`s
    double share;   ///< fraction of the total
};

/** Ranked host profile, the shared Fig 15-style report format. */
struct HostProfile
{
    std::string unit;  ///< what weight counts ("ns", "host insts")
    std::vector<HostProfileRow> rows; ///< descending share

    /** Share of the hottest entry (0 if empty). */
    double hottestShare() const;

    /** Cumulative share of the @p n hottest entries. */
    double cumulativeShare(std::size_t n) const;
};

/** Real self-profile: event classes ranked by attributed wall time. */
HostProfile hostProfileFromSelf(const sim::Profiler &profiler);

/**
 * Modeled profile (Fig 15): functions ranked by the host instructions
 * attributed to their own bodies, indexed by FuncId as
 * trace::Synthesizer::selfOps() counts them. Equal counts order by
 * name, so the ranking does not depend on FuncId assignment order.
 */
HostProfile hostProfileFromSelfOps(
    const std::vector<std::uint64_t> &self_ops);

/** Print the shared ranked-share table (top @p top rows). */
void printHostProfile(std::ostream &os, const std::string &title,
                      const HostProfile &profile, std::size_t top = 10);

} // namespace g5p::core

#endif // G5P_CORE_TELEMETRY_HH
