#include "sim/simulator.hh"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "base/logging.hh"
#include "base/sim_error.hh"
#include "sim/profiler.hh"
#include "sim/sim_object.hh"
#include "trace/recorder.hh"

namespace g5p::sim
{

const char *
exitCauseName(ExitCause cause)
{
    switch (cause) {
      case ExitCause::Finished:        return "finished";
      case ExitCause::TickLimit:       return "tick limit reached";
      case ExitCause::EventQueueEmpty: return "event queue empty";
      case ExitCause::User:            return "user exit";
      case ExitCause::Deadlock:        return "deadlock detected";
      case ExitCause::Livelock:        return "livelock detected";
      case ExitCause::WatchdogTimeout: return "watchdog timeout";
    }
    return "unknown";
}

bool
isSupervisedExit(ExitCause cause)
{
    return cause == ExitCause::Deadlock ||
           cause == ExitCause::Livelock ||
           cause == ExitCause::WatchdogTimeout;
}

/** Internal event that makes run() return at a chosen tick. */
class Simulator::ExitEvent : public Event
{
  public:
    ExitEvent(Simulator &sim, std::string message, ExitCause cause,
              std::string tag)
        : Event(SimExitPri), sim_(sim), message_(std::move(message)),
          cause_(cause), tag_(std::move(tag))
    {
        sim_.eventq_.registerSerial(tag_, this);
    }

    ~ExitEvent() override { sim_.eventq_.unregisterSerial(tag_); }

    void
    process() override
    {
        sim_.exitRequested_ = true;
        sim_.exitCause_ = cause_;
        sim_.exitMessage_ = message_;
    }

    std::string name() const override { return "exit-event"; }

    const std::string &tag() const { return tag_; }
    const std::string &message() const { return message_; }
    ExitCause cause() const { return cause_; }

  private:
    Simulator &sim_;
    std::string message_;
    ExitCause cause_;
    /** Checkpoint tag (see EventQueue::registerSerial). */
    std::string tag_;
};

namespace
{
/** See setTransientResourceProbe: written from a static initializer
 *  in the pool's TU, so it must be constant-initialized itself. */
constinit TransientResourceProbe transientProbe = nullptr;
} // namespace

void
setTransientResourceProbe(TransientResourceProbe probe)
{
    transientProbe = probe;
}

void
Simulator::assertTransientsDrained(const char *when) const
{
    if (!transientProbe)
        return;
    std::uint64_t outstanding = transientProbe();
    g5p_assert(outstanding == transientGuard_.baseline,
               "%s: %llu transient packet(s) leaked at %s "
               "(tick %llu, baseline %llu) — some object dropped a "
               "packet without deleting it or parking it on an "
               "owning event",
               groupName().c_str(),
               (unsigned long long)outstanding, when,
               (unsigned long long)eventq_.curTick(),
               (unsigned long long)transientGuard_.baseline);
}

Simulator::TransientDrainGuard::TransientDrainGuard()
    : baseline(transientProbe ? transientProbe() : 0)
{
}

Simulator::TransientDrainGuard::~TransientDrainGuard()
{
    if (!transientProbe)
        return;
    std::uint64_t outstanding = transientProbe();
    g5p_assert(outstanding == baseline,
               "simulator teardown: %llu transient packet(s) still "
               "outstanding after the event queue cleared (baseline "
               "%llu) — leaked out of the packet pool",
               (unsigned long long)outstanding,
               (unsigned long long)baseline);
}

Simulator::Simulator(const std::string &name)
    : stats::Group(nullptr, name), eventq_(name + ".eventq"),
      autoCkptEvent_(this, "sim.autockpt", Event::StatDumpPri)
{
    // Objects built under this simulator get addresses from its own
    // data space, so identical configurations lay out identically
    // regardless of what ran earlier in the process.
    trace::DataSpace::setCurrent(&dataSpace_);
    eventq_.registerSerial("sim.autockpt", &autoCkptEvent_);
}

Simulator::~Simulator()
{
    // Exit events may still be scheduled; deschedule them before their
    // unique_ptrs die so Event's "not scheduled" invariant holds.
    for (auto &ev : pendingExits_)
        if (ev->scheduled())
            eventq_.deschedule(*ev);
    if (autoCkptEvent_.scheduled())
        eventq_.deschedule(autoCkptEvent_);
}

void
Simulator::registerObject(SimObject *obj)
{
    obj->id_ = nextObjectId_++;
    objects_.push_back(obj);
    if (profiler_)
        profiler_->registerOwner(obj->name(), obj->id_);
}

void
Simulator::unregisterObject(SimObject *obj)
{
    objects_.erase(std::remove(objects_.begin(), objects_.end(), obj),
                   objects_.end());
}

void
Simulator::initPhase()
{
    // Phases match gem5: init, regStats, startup, in registration
    // order. Incremental: objects constructed after a previous pass
    // (the CPU-model switch builds cores mid-simulation) get the same
    // three phases, batched so every new object's init precedes any
    // new object's regStats, exactly as at cold start.
    std::vector<SimObject *> fresh;
    for (auto *obj : objects_)
        if (!obj->phased_)
            fresh.push_back(obj);
    for (auto *obj : fresh)
        obj->init();
    for (auto *obj : fresh)
        obj->regStats();
    for (auto *obj : fresh) {
        obj->startup();
        obj->phased_ = true;
    }
}

void
Simulator::applyWatchdog(const WatchdogConfig &config, bool enabled)
{
    watchdog_ = config;
    watchdogEnabled_ = enabled;
    flight_.clear();
    flightNext_ = 0;
}

void
Simulator::applyAutoCheckpoint(Tick period, std::string prefix)
{
    autoCkptPeriod_ = period;
    autoCkptPrefix_ = std::move(prefix);
    autoCkptPending_ = false;
    if (period == 0) {
        if (autoCkptEvent_.scheduled())
            eventq_.deschedule(autoCkptEvent_);
        return;
    }
    eventq_.reschedule(autoCkptEvent_, eventq_.curTick() + period);
}

void
Simulator::configure(const RunOptions &options)
{
    runOptions_ = options;
    applyWatchdog(options.watchdog, options.supervise);
    applyAutoCheckpoint(options.autoCheckpointPeriod,
                        options.autoCheckpointPrefix);
}

void
Simulator::attachProfiler(Profiler &profiler)
{
    profiler_ = &profiler;
    eventq_.setProfiler(&profiler);
    for (const auto *obj : objects_)
        profiler.registerOwner(obj->name(), obj->id());
    if (!profiler.armed())
        profiler.arm();
}

void
Simulator::recordFlight(Tick when, std::int16_t priority,
                        std::string name)
{
    if (flight_.size() < watchdog_.flightRecorderDepth) {
        flight_.push_back({when, priority, std::move(name)});
        flightNext_ = flight_.size() % watchdog_.flightRecorderDepth;
    } else {
        flight_[flightNext_] = {when, priority, std::move(name)};
        flightNext_ = (flightNext_ + 1) % flight_.size();
    }
}

std::vector<FlightRecord>
Simulator::flightRecords() const
{
    // Unroll the ring: oldest entry first.
    std::vector<FlightRecord> out;
    out.reserve(flight_.size());
    for (std::size_t i = 0; i < flight_.size(); ++i)
        out.push_back(flight_[(flightNext_ + i) % flight_.size()]);
    return out;
}

std::string
Simulator::diagnosticDump() const
{
    std::ostringstream os;
    os << "=== " << groupName() << " diagnostic @ tick "
       << eventq_.curTick() << " (" << eventsServiced_
       << " events serviced) ===\n";
    eventq_.dumpPending(os);
    if (diagProbe_)
        os << diagProbe_();
    if (!flight_.empty()) {
        os << "last " << flight_.size()
           << " serviced events (oldest first):\n";
        for (const FlightRecord &r : flightRecords())
            os << "  @" << r.tick << " prio " << r.priority << " '"
               << r.name << "'\n";
    }
    return os.str();
}

SimResult
Simulator::supervisedExit(ExitCause cause, std::string message)
{
    std::string diag = diagnosticDump();
    g5p_warn("%s at tick %llu: %s", exitCauseName(cause),
             (unsigned long long)eventq_.curTick(), message.c_str());
    if (profiler_ && profiler_->armed()) {
        // Flight-recorder dump into the trace: the last events the
        // loop serviced ride along with the error instant.
        std::vector<std::string> recent;
        for (const FlightRecord &r : flightRecords())
            recent.push_back("@" + std::to_string(r.tick) + " '" +
                             r.name + "'");
        profiler_->noteError(
            std::string(exitCauseName(cause)) + ": " + message,
            recent);
    }
    return {cause, eventq_.curTick(), std::move(message),
            std::move(diag)};
}

namespace
{

/** RAII profiler span; no-op when @p profiler is null/disarmed. */
class SpanGuard
{
  public:
    SpanGuard(Profiler *profiler, const char *name)
        : profiler_(profiler)
    {
        if (profiler_)
            profiler_->beginSpan(name);
    }

    ~SpanGuard()
    {
        if (profiler_)
            profiler_->endSpan();
    }

  private:
    Profiler *profiler_;
};

} // namespace

SimResult
Simulator::run(Tick tick_limit)
{
    G5P_TRACE_SCOPE("Simulator::run", EventLoop, false);
    SpanGuard runSpan(profiler_, "run");
    initPhase();
    exitRequested_ = false;

    // Watchdog bookkeeping is per-run(): a fresh call gets a fresh
    // wall clock and budget even when continuing a simulation.
    const bool wd = watchdogEnabled_;

    // Batching handlers must honor this run's tick limit, and both
    // the watchdog and the self-profiler need the classic one-event-
    // per-unit granularity to attribute and count correctly.
    eventq_.setServiceHorizon(tick_limit);
    eventq_.setBatchingAllowed(!wd && !profiler_);
    std::uint64_t runEvents = 0;
    std::uint64_t sameTickEvents = 0;
    Tick lastTick = eventq_.curTick();
    const auto wallStart = std::chrono::steady_clock::now();

    while (!exitRequested_) {
        Tick next = eventq_.nextTick();
        if (next == maxTick) {
            if (activityProbe_ && activityProbe_())
                return supervisedExit(
                    ExitCause::Deadlock,
                    "event queue empty while the machine still "
                    "expects progress");
            return {ExitCause::EventQueueEmpty, eventq_.curTick(), ""};
        }
        if (next > tick_limit) {
            // Advance to the limit, but never rewind (a checkpoint
            // restore may have set curTick past a small limit).
            if (tick_limit > eventq_.curTick())
                eventq_.setCurTick(tick_limit);
            return {ExitCause::TickLimit, eventq_.curTick(), ""};
        }
        if (wd && watchdog_.flightRecorderDepth > 0) {
            const Event *top = eventq_.peekTop();
            recordFlight(next, top->priority(), top->name());
        }
        eventq_.serviceOne();
        ++eventsServiced_;
        if (wd) {
            ++runEvents;
            if (eventq_.curTick() != lastTick) {
                lastTick = eventq_.curTick();
                sameTickEvents = 0;
            } else if (watchdog_.livelockEvents &&
                       ++sameTickEvents >= watchdog_.livelockEvents) {
                return supervisedExit(
                    ExitCause::Livelock,
                    g5p::detail::vformat(
                        "curTick %llu unchanged across %llu "
                        "consecutively serviced events",
                        (unsigned long long)lastTick,
                        (unsigned long long)sameTickEvents));
            }
            if (watchdog_.maxEvents &&
                runEvents >= watchdog_.maxEvents) {
                return supervisedExit(
                    ExitCause::WatchdogTimeout,
                    g5p::detail::vformat(
                        "event budget of %llu serviced events "
                        "exhausted",
                        (unsigned long long)watchdog_.maxEvents));
            }
            // The wall clock is only sampled every 4096 events: a
            // syscall-rate check would dominate the loop.
            if (watchdog_.maxWallSeconds > 0 &&
                (runEvents & 0xfff) == 0) {
                std::chrono::duration<double> elapsed =
                    std::chrono::steady_clock::now() - wallStart;
                if (elapsed.count() >= watchdog_.maxWallSeconds)
                    return supervisedExit(
                        ExitCause::WatchdogTimeout,
                        g5p::detail::vformat(
                            "wall-clock budget of %.3f s exhausted "
                            "after %.3f s",
                            watchdog_.maxWallSeconds,
                            elapsed.count()));
            }
        }
        if (autoCkptPending_)
            doAutoCheckpoint();
    }
    return {exitCause_, eventq_.curTick(), exitMessage_};
}

void
Simulator::exitSimLoop(const std::string &message, ExitCause cause,
                       Tick when)
{
    Tick at = std::max(when, eventq_.curTick());
    auto ev = std::make_unique<ExitEvent>(
        *this, message, cause, "exit" + std::to_string(nextExitId_++));
    eventq_.schedule(*ev, at);
    pendingExits_.push_back(std::move(ev));
}

void
Simulator::dumpStats(std::ostream &os) const
{
    stats::Group::dumpStats(os);
}

void
Simulator::resetAllStats()
{
    resetStats();
}

bool
Simulator::advanceToQuiescence(std::uint64_t max_events)
{
    initPhase();
    exitRequested_ = false;
    std::uint64_t serviced = 0;
    while (!eventq_.quiescent()) {
        // Transient events are heap-resident, so the queue cannot be
        // empty here. Servicing counts toward eventsServiced_ exactly
        // as run() would — the seek is indistinguishable from a
        // normal run continuing.
        eventq_.serviceOne();
        ++eventsServiced_;
        if (exitRequested_)
            return false;
        if (++serviced >= max_events)
            g5p_throw(InvariantError, groupName(), eventq_.curTick(),
                      "no quiescent point within %llu events",
                      (unsigned long long)max_events);
    }
    // Quiescent means no memory transaction is in flight anywhere, so
    // every pooled packet must be back home.
    assertTransientsDrained("quiescence");
    return true;
}

bool
Simulator::checkpoint(const std::string &path)
{
    SpanGuard span(profiler_, "checkpoint");
    if (!advanceToQuiescence()) {
        // Not a failure: the workload simply finished during the
        // quiescence seek. The caller sees the exit on its next
        // run()/result inspection; nothing was written.
        g5p_warn("checkpoint '%s' skipped: simulation exited before "
                 "reaching a quiescent point", path.c_str());
        return false;
    }
    CheckpointOut cp;
    takeCheckpoint(cp);
    cp.writeFile(path, runOptions_.checkpointRetry.maxAttempts,
                 runOptions_.checkpointRetry.backoffBaseMs);
    return true;
}

void
Simulator::restore(const std::string &path)
{
    SpanGuard span(profiler_, "restore");
    CheckpointIn cp = CheckpointIn::readFile(path);
    restoreCheckpoint(cp);
}

void
Simulator::doAutoCheckpoint()
{
    SpanGuard span(profiler_, "auto-checkpoint");
    autoCkptPending_ = false;
    if (autoCkptPeriod_ == 0) {
        // A restored checkpoint can carry a scheduled auto-checkpoint
        // event into a simulator that never enabled the feature.
        g5p_warn("auto-checkpoint event fired but auto-checkpointing "
                 "is not configured; ignoring");
        return;
    }
    if (exitRequested_)
        return; // the loop is about to return; nothing to resume
    if (!advanceToQuiescence()) {
        g5p_warn("auto-checkpoint skipped: simulation exited before "
                 "reaching a quiescent point");
        return;
    }
    std::string path = autoCkptPrefix_ + "-" +
                       std::to_string(eventq_.curTick()) + ".ckpt";
    try {
        CheckpointOut cp;
        takeCheckpoint(cp);
        cp.writeFile(path, runOptions_.checkpointRetry.maxAttempts,
                     runOptions_.checkpointRetry.backoffBaseMs);
        g5p_inform("auto-checkpoint written to '%s'", path.c_str());
    } catch (const CheckpointError &e) {
        // Degrade gracefully: a failed periodic checkpoint must not
        // kill a healthy simulation. Keep running; the next period
        // retries (and the last good checkpoint stays valid thanks
        // to the atomic tmp+rename write).
        g5p_warn("auto-checkpoint to '%s' failed (%s); continuing "
                 "without it", path.c_str(), e.summary().c_str());
    }
    eventq_.schedule(autoCkptEvent_,
                     eventq_.curTick() + autoCkptPeriod_);
}

namespace
{

/** Snapshot visitor: each non-derived stat becomes one paramVector
 *  keyed by its group-relative dotted name. */
class StatSnapshotVisitor : public stats::Visitor
{
  public:
    explicit StatSnapshotVisitor(CheckpointOut &cp) : cp_(cp) {}

    void
    stat(stats::Info &stat, const std::string &dotted) override
    {
        std::vector<double> vals = stat.snapshotValues();
        if (!vals.empty())
            cp_.paramVector(dotted, vals);
    }

  private:
    CheckpointOut &cp_;
};

/** Restore visitor: stats missing from the checkpoint keep their
 *  freshly built values. */
class StatRestoreVisitor : public stats::Visitor
{
  public:
    explicit StatRestoreVisitor(const CheckpointIn &cp) : cp_(cp) {}

    void
    stat(stats::Info &stat, const std::string &dotted) override
    {
        if (!cp_.has(dotted))
            return;
        std::vector<double> vals;
        cp_.paramVector(dotted, vals);
        stat.restoreValues(vals);
    }

  private:
    const CheckpointIn &cp_;
};

} // namespace

/** Write the non-derived stats of @p group as a "stats" subsection. */
void
serializeGroupStats(const stats::Group &group, CheckpointOut &cp)
{
    cp.pushSection("stats");
    StatSnapshotVisitor snapshot(cp);
    // Relative root: keys stay group-local ("hits", not
    // "system.cpu0.hits") exactly as the pre-visitor format wrote
    // them, keeping checkpoints compatible.
    group.visit(snapshot, "");
    cp.popSection();
}

/** Inverse of serializeGroupStats; missing stats keep fresh values. */
void
unserializeGroupStats(stats::Group &group, const CheckpointIn &cp)
{
    if (!cp.hasSection("stats"))
        return;
    cp.pushSection("stats");
    StatRestoreVisitor restore(cp);
    group.visit(restore, "");
    cp.popSection();
}

void
Simulator::takeCheckpoint(CheckpointOut &cp) const
{
    g5p_assert(eventq_.quiescent(),
               "takeCheckpoint requires a quiescent event queue "
               "(use Simulator::checkpoint)");
    assertTransientsDrained("takeCheckpoint");
    cp.pushSection(groupName());

    cp.pushSection("meta");
    cp.param("version", checkpointVersion);
    cp.param("curTick", eventq_.curTick());
    cp.param("eventsServiced", eventsServiced_);
    cp.param("nextExitId", nextExitId_);
    cp.popSection();

    // Pending exit requests: the payload lives here, the scheduled
    // tick (keyed by tag) in the eventq section.
    cp.pushSection("exits");
    std::size_t live = 0;
    for (const auto &ev : pendingExits_) {
        if (!ev->scheduled())
            continue;
        std::string key = "exit" + std::to_string(live++);
        cp.param(key + "_tag", ev->tag());
        cp.param(key + "_msg", ev->message());
        cp.param(key + "_cause", static_cast<int>(ev->cause()));
    }
    cp.param("numExits", live);
    cp.popSection();

    for (const auto *obj : objects_) {
        cp.pushSection(obj->name());
        obj->serialize(cp);
        serializeGroupStats(*obj, cp);
        cp.popSection();
    }

    cp.pushSection("eventq");
    eventq_.serializeEvents(cp);
    cp.popSection();

    cp.popSection();
}

void
Simulator::restoreCheckpoint(const CheckpointIn &cp)
{
    // The freshly built machine must be fully initialized (regStats,
    // startup) before state is overwritten; startup-scheduled events
    // are then cleared and replaced by the checkpointed set.
    initPhase();
    eventq_.clear();
    pendingExits_.clear();

    cp.pushSection(groupName());

    Tick tick = 0;
    if (cp.hasSection("meta")) {
        cp.pushSection("meta");
        unsigned version = 0;
        cp.param("version", version);
        if (version > checkpointVersion)
            g5p_warn("checkpoint version %u is newer than supported "
                     "%u; restoring best-effort", version,
                     checkpointVersion);
        cp.param("curTick", tick);
        cp.param("eventsServiced", eventsServiced_);
        cp.param("nextExitId", nextExitId_);
        cp.popSection();
    } else {
        // Pre-versioned layout kept curTick at the top level.
        g5p_warn("checkpoint has no meta section; assuming legacy "
                 "layout");
        if (cp.has("curTick"))
            cp.param("curTick", tick);
    }
    eventq_.setCurTick(tick);

    if (cp.hasSection("exits")) {
        cp.pushSection("exits");
        std::size_t count = 0;
        cp.param("numExits", count);
        for (std::size_t i = 0; i < count; ++i) {
            std::string key = "exit" + std::to_string(i);
            std::string tag, msg;
            int cause = 0;
            cp.param(key + "_tag", tag);
            cp.param(key + "_msg", msg);
            cp.param(key + "_cause", cause);
            // Recreate (and re-register) the event; the eventq
            // section below schedules it at the recorded tick.
            pendingExits_.push_back(std::make_unique<ExitEvent>(
                *this, msg, static_cast<ExitCause>(cause), tag));
        }
        cp.popSection();
    }

    for (auto *obj : objects_) {
        if (!cp.hasSection(obj->name())) {
            g5p_warn("checkpoint has no section for '%s'; keeping "
                     "freshly built state", obj->name().c_str());
            continue;
        }
        cp.pushSection(obj->name());
        obj->unserialize(cp);
        unserializeGroupStats(*obj, cp);
        cp.popSection();
    }

    if (cp.hasSection("eventq")) {
        cp.pushSection("eventq");
        eventq_.unserializeEvents(cp);
        cp.popSection();
    }

    cp.popSection();

    // Graceful degradation: report checkpoint content this machine
    // did not consume (e.g. an object that no longer exists).
    const std::string prefix = groupName() + ".";
    for (const std::string &section : cp.sectionNames()) {
        if (section.compare(0, prefix.size(), prefix) != 0)
            continue;
        std::string rest = section.substr(prefix.size());
        auto matches = [&rest](const std::string &known) {
            return rest == known ||
                   (rest.size() > known.size() &&
                    rest.compare(0, known.size(), known) == 0 &&
                    rest[known.size()] == '.');
        };
        bool known = matches("meta") || matches("exits") ||
                     matches("eventq");
        for (const auto *obj : objects_) {
            if (known)
                break;
            known = matches(obj->name());
        }
        if (!known)
            g5p_warn("unknown checkpoint section '%s' ignored",
                     section.c_str());
    }

    restored_ = true;
}

} // namespace g5p::sim
