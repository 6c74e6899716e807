/**
 * @file
 * Self-profiler: attributes host wall-clock to the events the
 * simulator services, per event type and owning SimObject.
 *
 * The paper's whole method is treating the simulator as the profiled
 * application (§IV); this module closes the loop by letting mg5
 * profile *itself*. The event loop calls beginService/endService
 * around every Event::process(); the profiler buckets host time by
 * event class (the "owner.type" convention of event names), samples
 * queue depth, events/sec and the sim-tick/wall-clock slowdown
 * factor, and keeps bounded slice/span/instant records that
 * core/telemetry turns into a Chrome trace_event JSON.
 *
 * Overhead contract (enforced by bench/abl_profiler):
 *  - not attached: one null-pointer test per serviced event;
 *  - attached but disarmed: plus one bool test (<= 2% on the eventq
 *    microbench);
 *  - armed, batch mode: the steady_clock is read once per
 *    batchEvents events, the batch delta is spread evenly over the
 *    batch — counts stay exact, per-class time is approximate;
 *  - armed, trace mode (traceSlices): two clock reads per event plus
 *    one bounded slice record — the accurate-but-heavier setting
 *    behind --profile.
 */

#ifndef G5P_SIM_PROFILER_HH
#define G5P_SIM_PROFILER_HH

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/types.hh"

namespace g5p::sim
{

class Event;

/** Knobs for the self-profiler, fixed when it is built. */
struct ProfilerConfig
{
    /** Profiling requested: a caller that builds a Profiler only on
     *  request (the example CLI's --profile and --metrics) reads
     *  this. The Profiler itself ignores it. */
    bool enabled = false;

    /** Events per steady_clock read in batch mode (>= 1). */
    std::uint32_t batchEvents = 64;

    /** Record a wall-clock slice per serviced event (two clock reads
     *  per event) so the Chrome trace shows individual events. The
     *  profiler only collects; core/telemetry writes the trace. */
    bool traceSlices = false;

    /** Bound on retained slices; once full, further slices are
     *  counted as dropped rather than recorded. */
    std::size_t maxTraceSlices = 200'000;

    /** JSONL live metrics stream ("" = off). One line roughly every
     *  metricsEveryEvents serviced events, flushed immediately so a
     *  long campaign can be watched with tail -f. */
    std::string metricsPath;
    std::uint64_t metricsEveryEvents = 100'000;

    /** Bound on retained counter samples (eps/qdepth/slowdown). */
    std::size_t maxCounterSamples = 65'536;
};

/** Aggregate for one event class ("owner.type" event name). */
struct EventClassStats
{
    std::string name;   ///< full event name, e.g. "cpu0.dcache.resp"
    std::string owner;  ///< name up to the last '.', "" for global
    std::string type;   ///< name after the last '.', e.g. "resp"
    std::uint64_t count = 0;
    double wallNs = 0;  ///< attributed host time
};

/** One per-event wall-clock slice (trace mode only). */
struct ProfSlice
{
    std::uint32_t key;      ///< 1-based index into eventClasses()
    std::uint64_t startNs;  ///< since arm()
    std::uint64_t durNs;
    Tick tick;              ///< sim tick the event ran at
};

/** A labelled wall-clock span (checkpoint, restore, run, ...). */
struct ProfSpan
{
    std::string name;
    std::uint64_t startNs;
    std::uint64_t durNs;
    Tick tick;
};

/** A point annotation (errors, watchdog trips). */
struct ProfInstant
{
    std::string name;
    std::string detail; ///< free text (e.g. flight-recorder tail)
    std::uint64_t atNs;
    Tick tick;
};

/** Periodic rate sample taken at batch boundaries. */
struct ProfCounterSample
{
    std::uint64_t atNs;
    Tick tick;
    double eventsPerSec;
    double queueDepth;
    /** Host seconds per simulated second (wall / sim time). */
    double slowdown;
};

/** A SimObject the trace writer may map slices onto (tid per owner). */
struct ProfOwner
{
    std::string name;
    std::uint32_t id;
};

/**
 * The collector. Always caller-owned: Simulator::attachProfiler()
 * installs it into the event loop, so its data outlives the run and
 * one profiler can follow several runs.
 */
class Profiler
{
  public:
    explicit Profiler(ProfilerConfig config = {});
    ~Profiler();

    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    /** Start collecting: zero the wall-clock origin, open the metrics
     *  stream. Idempotent. */
    void arm();

    /** Stop collecting: account the partial batch, close the metrics
     *  stream. Collected data stays readable. Idempotent. */
    void disarm();

    bool armed() const { return armed_; }

    /** Tell the trace writer about a SimObject (name -> stable id),
     *  so its slices get their own thread track. */
    void registerOwner(const std::string &name, std::uint32_t id);

    /** @{ Event-loop hot path (called by EventQueue::serviceTop).
     *  Disarmed cost is the bool test. */
    void
    beginService(Event &event, Tick when, std::size_t queue_depth)
    {
        if (!armed_)
            return;
        beginServiceSlow(event, when, queue_depth);
    }

    void
    endService()
    {
        if (!armed_)
            return;
        endServiceSlow();
    }
    /** @} */

    /** @{ Wall-clock spans; nest freely (stack discipline). No-ops
     *  while disarmed. */
    void beginSpan(const std::string &name);
    void endSpan();
    /** @} */

    /** Point annotation (e.g. "livelock detected"). */
    void noteInstant(const std::string &name,
                     const std::string &detail = "");

    /** Error annotation carrying the flight-recorder tail, so the
     *  trace shows what the loop serviced just before dying. */
    void noteError(const std::string &summary,
                   const std::vector<std::string> &recentEvents);

    /** @{ Collected data (valid while armed and after disarm). */
    const std::vector<EventClassStats> &eventClasses() const
    { return classes_; }
    const std::vector<ProfSlice> &slices() const { return slices_; }
    const std::vector<ProfSpan> &spans() const { return spans_; }
    const std::vector<ProfInstant> &instants() const
    { return instants_; }
    const std::vector<ProfCounterSample> &counterSamples() const
    { return counters_; }
    const std::vector<ProfOwner> &owners() const { return owners_; }
    std::uint64_t totalEvents() const { return totalEvents_; }
    std::uint64_t droppedSlices() const { return droppedSlices_; }
    /** Wall time spent armed, in seconds. */
    double wallSeconds() const;
    /** First/last tick any serviced event ran at. */
    Tick firstTick() const { return firstTick_; }
    Tick lastTick() const { return lastTick_; }
    /** @} */

  private:
    void beginServiceSlow(Event &event, Tick when,
                          std::size_t queue_depth);
    void endServiceSlow();

    /** Close out the key batch: read the clock once, spread the delta
     *  (batch mode), take a counter sample, maybe emit metrics. */
    void drainBatch();

    /** Resolve an event name to a 1-based class key (interning). */
    std::uint32_t intern(const std::string &name);

    /** Nanoseconds since arm(). */
    std::uint64_t nowNs() const;

    void writeMetricsLine(const ProfCounterSample &sample);

    ProfilerConfig config_;
    bool armed_ = false;
    /** Distinguishes this instance's keys cached in Event::profKey_
     *  from a previous profiler's (see Event::profKey_). */
    std::uint32_t instanceTag_;

    std::uint64_t originNs_ = 0; ///< steady_clock at arm()
    std::uint64_t stoppedNs_ = 0;///< elapsed at disarm()

    std::vector<EventClassStats> classes_;
    std::unordered_map<std::string, std::uint32_t> keyByName_;
    std::vector<ProfOwner> owners_;

    /** Ring of keys serviced since the last clock read. */
    std::vector<std::uint32_t> batch_;
    std::uint32_t batchFill_ = 0;
    std::uint64_t batchT0Ns_ = 0;
    Tick batchT0Tick_ = 0;

    /** In-flight event (between begin and end). */
    std::uint32_t curKey_ = 0;
    Tick curTick_ = 0;
    std::uint64_t sliceT0Ns_ = 0;
    double lastQueueDepth_ = 0;

    std::vector<ProfSlice> slices_;
    std::uint64_t droppedSlices_ = 0;
    std::vector<ProfSpan> spans_;
    /** Open spans: index into spans_ (duration patched on end). */
    std::vector<std::size_t> spanStack_;
    std::vector<ProfInstant> instants_;
    std::vector<ProfCounterSample> counters_;

    std::uint64_t totalEvents_ = 0;
    Tick firstTick_ = 0;
    Tick lastTick_ = 0;
    bool sawEvent_ = false;

    std::unique_ptr<std::ofstream> metrics_;
    std::uint64_t lastMetricsEvents_ = 0;
};

} // namespace g5p::sim

#endif // G5P_SIM_PROFILER_HH
