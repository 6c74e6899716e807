#include "sim/profiler.hh"

#include <atomic>
#include <chrono>
#include <utility>

#include "base/logging.hh"
#include "sim/eventq.hh"

namespace g5p::sim
{

namespace
{

/** Open spans and annotations are cold; bound them anyway so a
 *  pathological run cannot grow without limit. */
constexpr std::size_t maxSpans = 65'536;
constexpr std::size_t maxInstants = 4'096;

std::uint64_t
steadyNowNs()
{
    return (std::uint64_t)std::chrono::duration_cast<
        std::chrono::nanoseconds>(
        std::chrono::steady_clock::now().time_since_epoch()).count();
}

/** Process-wide instance tags so keys cached in pooled (recycled)
 *  Event memory never alias across profiler instances. Atomic:
 *  profilers may be constructed concurrently by parallel runs. */
std::uint32_t
nextInstanceTag()
{
    static std::atomic<std::uint32_t> counter{0};
    return 1 + counter.fetch_add(1, std::memory_order_relaxed) % 255;
}

} // namespace

Profiler::Profiler(ProfilerConfig config)
    : config_(std::move(config)), instanceTag_(nextInstanceTag())
{
    if (config_.batchEvents == 0)
        config_.batchEvents = 1;
    batch_.assign(config_.batchEvents, 0);
}

Profiler::~Profiler()
{
    disarm();
}

void
Profiler::arm()
{
    if (armed_)
        return;
    armed_ = true;
    originNs_ = steadyNowNs();
    stoppedNs_ = 0;
    batchFill_ = 0;
    batchT0Ns_ = 0;
    batchT0Tick_ = curTick_;
    if (!config_.metricsPath.empty()) {
        metrics_ = std::make_unique<std::ofstream>(
            config_.metricsPath, std::ios::trunc);
        if (!*metrics_) {
            g5p_warn("profiler: cannot open metrics stream '%s'; "
                     "metrics disabled", config_.metricsPath.c_str());
            metrics_.reset();
        }
    }
}

void
Profiler::disarm()
{
    if (!armed_)
        return;
    if (batchFill_ > 0)
        drainBatch();
    while (!spanStack_.empty())
        endSpan();
    stoppedNs_ = nowNs();
    armed_ = false;
    metrics_.reset();
}

std::uint64_t
Profiler::nowNs() const
{
    return steadyNowNs() - originNs_;
}

double
Profiler::wallSeconds() const
{
    return (armed_ ? nowNs() : stoppedNs_) * 1e-9;
}

void
Profiler::registerOwner(const std::string &name, std::uint32_t id)
{
    for (const ProfOwner &o : owners_)
        if (o.name == name)
            return;
    owners_.push_back({name, id});
}

std::uint32_t
Profiler::intern(const std::string &name)
{
    auto [it, inserted] =
        keyByName_.emplace(name, (std::uint32_t)classes_.size() + 1);
    if (inserted) {
        EventClassStats cls;
        cls.name = name;
        auto dot = name.rfind('.');
        if (dot == std::string::npos) {
            cls.type = name;
        } else {
            cls.owner = name.substr(0, dot);
            cls.type = name.substr(dot + 1);
        }
        classes_.push_back(std::move(cls));
    }
    return it->second;
}

void
Profiler::beginServiceSlow(Event &event, Tick when,
                           std::size_t queue_depth)
{
    std::uint32_t cached = event.profKey_;
    if ((cached >> 24) == instanceTag_ && (cached & 0xffffff) != 0) {
        curKey_ = cached & 0xffffff;
    } else {
        curKey_ = intern(event.name());
        event.profKey_ = (instanceTag_ << 24) | curKey_;
    }
    curTick_ = when;
    lastQueueDepth_ = (double)queue_depth;
    if (!sawEvent_) {
        sawEvent_ = true;
        firstTick_ = when;
        batchT0Tick_ = when;
        // Re-origin the first batch here so time between arm() and
        // the first serviced event (machine build, init phases) is
        // not charged to that batch.
        batchT0Ns_ = nowNs();
    }
    lastTick_ = when;
    if (config_.traceSlices)
        sliceT0Ns_ = nowNs();
}

void
Profiler::endServiceSlow()
{
    if (curKey_ == 0)
        return; // endService without a matching begin (defensive)
    EventClassStats &cls = classes_[curKey_ - 1];
    ++cls.count;
    ++totalEvents_;
    if (config_.traceSlices) {
        std::uint64_t t1 = nowNs();
        cls.wallNs += (double)(t1 - sliceT0Ns_);
        if (slices_.size() < config_.maxTraceSlices)
            slices_.push_back({curKey_, sliceT0Ns_, t1 - sliceT0Ns_,
                               curTick_});
        else
            ++droppedSlices_;
    }
    batch_[batchFill_++] = curKey_;
    curKey_ = 0;
    if (batchFill_ >= config_.batchEvents)
        drainBatch();
}

void
Profiler::drainBatch()
{
    std::uint64_t now = nowNs();
    double dt = (double)(now - batchT0Ns_);
    if (!config_.traceSlices && batchFill_ > 0) {
        // Batch mode: one clock read for the whole batch, the delta
        // spread evenly. Counts stay exact, per-class time converges
        // over many batches.
        double per = dt / batchFill_;
        for (std::uint32_t i = 0; i < batchFill_; ++i)
            classes_[batch_[i] - 1].wallNs += per;
    }

    ProfCounterSample sample;
    sample.atNs = now;
    sample.tick = lastTick_;
    sample.eventsPerSec = dt > 0 ? batchFill_ * 1e9 / dt : 0;
    sample.queueDepth = lastQueueDepth_;
    // Tick is one picosecond: sim ns advanced = delta ticks / 1000.
    double sim_ns = (double)(lastTick_ - batchT0Tick_) * 1e-3;
    sample.slowdown = sim_ns > 0 ? dt / sim_ns : 0;
    if (counters_.size() < config_.maxCounterSamples)
        counters_.push_back(sample);

    if (metrics_ &&
        totalEvents_ - lastMetricsEvents_ >= config_.metricsEveryEvents) {
        lastMetricsEvents_ = totalEvents_;
        writeMetricsLine(sample);
    }

    batchT0Ns_ = now;
    batchT0Tick_ = lastTick_;
    batchFill_ = 0;
}

void
Profiler::writeMetricsLine(const ProfCounterSample &sample)
{
    // One self-contained JSON object per line (JSONL), flushed so a
    // long campaign is observable while it runs.
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"wall_s\":%.6f,\"tick\":%llu,\"events\":%llu,"
                  "\"eps\":%.1f,\"queue_depth\":%.1f,"
                  "\"slowdown\":%.1f}\n",
                  sample.atNs * 1e-9,
                  (unsigned long long)sample.tick,
                  (unsigned long long)totalEvents_,
                  sample.eventsPerSec, sample.queueDepth,
                  sample.slowdown);
    *metrics_ << line;
    metrics_->flush();
}

void
Profiler::beginSpan(const std::string &name)
{
    if (!armed_ || spans_.size() >= maxSpans)
        return;
    spanStack_.push_back(spans_.size());
    spans_.push_back({name, nowNs(), 0, lastTick_});
}

void
Profiler::endSpan()
{
    if (!armed_ || spanStack_.empty())
        return;
    ProfSpan &span = spans_[spanStack_.back()];
    spanStack_.pop_back();
    span.durNs = nowNs() - span.startNs;
}

void
Profiler::noteInstant(const std::string &name,
                      const std::string &detail)
{
    if (!armed_ || instants_.size() >= maxInstants)
        return;
    instants_.push_back({name, detail, nowNs(), lastTick_});
}

void
Profiler::noteError(const std::string &summary,
                    const std::vector<std::string> &recentEvents)
{
    // The flight-recorder tail rides along as the instant's detail so
    // the trace shows what the loop serviced just before the error.
    std::string detail;
    for (const std::string &ev : recentEvents) {
        if (!detail.empty())
            detail += "; ";
        detail += ev;
    }
    noteInstant("error: " + summary, detail);
}

} // namespace g5p::sim
