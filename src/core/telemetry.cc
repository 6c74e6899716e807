#include "core/telemetry.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "base/logging.hh"
#include "base/str.hh"
#include "core/report.hh"
#include "trace/func_registry.hh"

namespace g5p::core
{

namespace
{

/** Attribution rows kept in otherData per session. */
constexpr std::size_t maxAttributionRows = 50;

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if ((unsigned char)c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              (unsigned)(unsigned char)c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** JSON number: finite, plain decimal (no nan/inf, no exponents that
 *  chrome://tracing chokes on for ts). */
std::string
jnum(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/** Microsecond timestamp from a nanosecond offset. */
std::string
jts(std::uint64_t ns)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.3f", (double)ns / 1000.0);
    return buf;
}

/** Comma-separated trace-event emitter. */
class EventSink
{
  public:
    explicit EventSink(std::ostream &os) : os_(os) {}

    void
    emit(const std::string &body)
    {
        if (!first_)
            os_ << ",\n";
        first_ = false;
        os_ << "  " << body;
    }

  private:
    std::ostream &os_;
    bool first_ = true;
};

void
emitSession(EventSink &sink, const TraceSession &session, int pid)
{
    const sim::Profiler &prof = *session.profiler;
    const std::string p = std::to_string(pid);

    sink.emit("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" + p +
              ",\"tid\":0,\"args\":{\"name\":\"" +
              jsonEscape(session.label) + "\"}}");
    sink.emit("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" + p +
              ",\"tid\":0,\"args\":{\"name\":\"simulator\"}}");

    // One thread track per registered SimObject; slices whose owner
    // is not a SimObject (e.g. "sim.exit") land on the simulator
    // track (tid 0).
    std::unordered_map<std::string, std::uint32_t> tidByOwner;
    for (const auto &owner : prof.owners()) {
        tidByOwner.emplace(owner.name, owner.id);
        sink.emit("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" +
                  p + ",\"tid\":" + std::to_string(owner.id) +
                  ",\"args\":{\"name\":\"" + jsonEscape(owner.name) +
                  "\"}}");
    }

    const auto &classes = prof.eventClasses();
    for (const auto &slice : prof.slices()) {
        if (slice.key == 0 || slice.key > classes.size())
            continue;
        const auto &cls = classes[slice.key - 1];
        std::uint32_t tid = 0;
        auto it = tidByOwner.find(cls.owner);
        if (it != tidByOwner.end())
            tid = it->second;
        sink.emit("{\"ph\":\"X\",\"cat\":\"event\",\"name\":\"" +
                  jsonEscape(cls.type) + "\",\"pid\":" + p +
                  ",\"tid\":" + std::to_string(tid) + ",\"ts\":" +
                  jts(slice.startNs) + ",\"dur\":" +
                  jts(slice.durNs) + ",\"args\":{\"tick\":" +
                  std::to_string(slice.tick) + ",\"class\":\"" +
                  jsonEscape(cls.name) + "\"}}");
    }

    for (const auto &span : prof.spans()) {
        sink.emit("{\"ph\":\"X\",\"cat\":\"phase\",\"name\":\"" +
                  jsonEscape(span.name) + "\",\"pid\":" + p +
                  ",\"tid\":0,\"ts\":" + jts(span.startNs) +
                  ",\"dur\":" + jts(span.durNs) +
                  ",\"args\":{\"tick\":" +
                  std::to_string(span.tick) + "}}");
    }

    for (const auto &instant : prof.instants()) {
        sink.emit("{\"ph\":\"i\",\"s\":\"p\",\"name\":\"" +
                  jsonEscape(instant.name) + "\",\"pid\":" + p +
                  ",\"tid\":0,\"ts\":" + jts(instant.atNs) +
                  ",\"args\":{\"tick\":" +
                  std::to_string(instant.tick) + ",\"detail\":\"" +
                  jsonEscape(instant.detail) + "\"}}");
    }

    for (const auto &sample : prof.counterSamples()) {
        const std::string ts = jts(sample.atNs);
        sink.emit("{\"ph\":\"C\",\"name\":\"events/sec\",\"pid\":" +
                  p + ",\"ts\":" + ts + ",\"args\":{\"value\":" +
                  jnum(sample.eventsPerSec) + "}}");
        sink.emit("{\"ph\":\"C\",\"name\":\"queue depth\",\"pid\":" +
                  p + ",\"ts\":" + ts + ",\"args\":{\"value\":" +
                  jnum(sample.queueDepth) + "}}");
        sink.emit("{\"ph\":\"C\",\"name\":\"slowdown\",\"pid\":" + p +
                  ",\"ts\":" + ts + ",\"args\":{\"value\":" +
                  jnum(sample.slowdown) + "}}");
    }
}

void
writeSessionSummary(std::ostream &os, const TraceSession &session)
{
    const sim::Profiler &prof = *session.profiler;
    os << "    {\"label\":\"" << jsonEscape(session.label)
       << "\",\"total_events\":" << prof.totalEvents()
       << ",\"wall_s\":" << jnum(prof.wallSeconds())
       << ",\"dropped_slices\":" << prof.droppedSlices()
       << ",\"sim_ticks\":" << (prof.lastTick() - prof.firstTick())
       << ",\"attribution\":[";

    HostProfile profile = hostProfileFromSelf(prof);
    std::size_t rows =
        std::min(profile.rows.size(), maxAttributionRows);
    for (std::size_t i = 0; i < rows; ++i) {
        const auto &row = profile.rows[i];
        os << (i ? "," : "") << "{\"name\":\""
           << jsonEscape(row.name) << "\",\"wall_ns\":"
           << jnum(row.weight) << ",\"share\":" << jnum(row.share)
           << "}";
    }
    os << "]}";
}

} // namespace

void
writeChromeTrace(std::ostream &os,
                 const std::vector<TraceSession> &sessions,
                 const sim::stats::Group *stats)
{
    os << "{\n\"traceEvents\": [\n";
    EventSink sink(os);
    int pid = 1;
    for (const auto &session : sessions) {
        if (session.profiler)
            emitSession(sink, session, pid);
        ++pid;
    }
    os << "\n],\n";
    os << "\"displayTimeUnit\": \"ms\",\n";
    os << "\"otherData\": {\n";
    os << "  \"tool\": \"mg5-profiler\",\n";
    os << "  \"sessions\": [\n";
    bool first = true;
    for (const auto &session : sessions) {
        if (!session.profiler)
            continue;
        if (!first)
            os << ",\n";
        first = false;
        writeSessionSummary(os, session);
    }
    os << "\n  ]";
    if (stats) {
        os << ",\n  \"stats\": {";
        bool firstStat = true;
        for (const auto &[dotted, value] : collectStatValues(*stats)) {
            os << (firstStat ? "" : ",") << "\n    \""
               << jsonEscape(dotted) << "\": " << jnum(value);
            firstStat = false;
        }
        os << "\n  }";
    }
    os << "\n}\n}\n";
}

void
writeChromeTrace(std::ostream &os, const sim::Profiler &profiler,
                 const std::string &label,
                 const sim::stats::Group *stats)
{
    writeChromeTrace(os, {TraceSession{label, &profiler}}, stats);
}

bool
writeChromeTraceFile(const std::string &path,
                     const std::vector<TraceSession> &sessions,
                     const sim::stats::Group *stats)
{
    std::ofstream os(path, std::ios::trunc);
    if (!os) {
        g5p_warn("telemetry: cannot open trace file '%s'",
                 path.c_str());
        return false;
    }
    writeChromeTrace(os, sessions, stats);
    os.flush();
    if (!os) {
        g5p_warn("telemetry: short write to trace file '%s'",
                 path.c_str());
        return false;
    }
    return true;
}

namespace
{

/**
 * Sort by descending weight, ties by name: std::sort is unstable, and
 * FuncId assignment order differs between serial and pooled runs (lazy
 * registration interleaves across threads), so equal weights must
 * order on a run-independent key for byte-identical reports.
 */
void
rankRows(std::vector<HostProfileRow> &rows)
{
    std::sort(rows.begin(), rows.end(),
              [](const HostProfileRow &a, const HostProfileRow &b) {
                  if (a.weight != b.weight)
                      return a.weight > b.weight;
                  return a.name < b.name;
              });
}

} // namespace

double
HostProfile::hottestShare() const
{
    return rows.empty() ? 0.0 : rows.front().share;
}

double
HostProfile::cumulativeShare(std::size_t n) const
{
    double sum = 0;
    for (std::size_t i = 0; i < n && i < rows.size(); ++i)
        sum += rows[i].share;
    return sum;
}

HostProfile
hostProfileFromSelf(const sim::Profiler &profiler)
{
    HostProfile profile;
    profile.unit = "ns";
    double total = 0;
    for (const auto &cls : profiler.eventClasses())
        total += cls.wallNs;
    for (const auto &cls : profiler.eventClasses()) {
        if (cls.wallNs <= 0)
            continue;
        profile.rows.push_back(
            {cls.name, cls.wallNs,
             total > 0 ? cls.wallNs / total : 0.0});
    }
    rankRows(profile.rows);
    return profile;
}

HostProfile
hostProfileFromSelfOps(const std::vector<std::uint64_t> &self_ops)
{
    HostProfile profile;
    profile.unit = "host insts";
    std::uint64_t total = 0;
    for (auto ops : self_ops)
        total += ops;
    const auto &registry = trace::FuncRegistry::instance();
    for (trace::FuncId id = 0; id < self_ops.size(); ++id) {
        if (self_ops[id] == 0)
            continue;
        std::string name = id < registry.size()
            ? registry.info(id).name
            : "func#" + std::to_string(id);
        profile.rows.push_back({name, (double)self_ops[id],
                                (double)self_ops[id] / (double)total});
    }
    rankRows(profile.rows);
    return profile;
}

void
printHostProfile(std::ostream &os, const std::string &title,
                 const HostProfile &profile, std::size_t top)
{
    printBanner(os, title);
    Table table({"#", "share", "cum", profile.unit, "name"});
    double cum = 0;
    std::size_t rows = std::min(profile.rows.size(), top);
    for (std::size_t i = 0; i < rows; ++i) {
        const auto &row = profile.rows[i];
        cum += row.share;
        table.addRow({std::to_string(i + 1), fmtPercent(row.share),
                      fmtPercent(cum), fmtDouble(row.weight, 0),
                      row.name});
    }
    table.print(os);
    if (profile.rows.size() > rows)
        os << "(+" << (profile.rows.size() - rows)
           << " more entries, "
           << fmtPercent(1.0 - cum)
           << " of the total)\n";
}

} // namespace g5p::core
