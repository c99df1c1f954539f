#include "obs/trace_export.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <vector>

namespace ppa
{
namespace obs
{

namespace
{

const char *
causeName(RegionEndCause cause)
{
    switch (cause) {
      case RegionEndCause::PrfExhausted:
        return "prf-exhausted";
      case RegionEndCause::CsqFull:
        return "csq-full";
      case RegionEndCause::SyncPrimitive:
        return "sync";
      case RegionEndCause::EndOfRun:
        return "end-of-run";
    }
    return "?";
}

/** One trace event, staged so the file can be emitted sorted by ts. */
struct Event
{
    std::uint64_t ts = 0;
    std::uint64_t seq = 0; ///< emission order; tie-break for equal ts
    std::string json;      ///< fully rendered event object
};

class TraceEvents
{
  public:
    void
    add(std::uint64_t ts, std::string json)
    {
        events.push_back(Event{ts, seq++, std::move(json)});
    }

    void
    span(unsigned tid, std::uint64_t begin, std::uint64_t end,
         const std::string &name)
    {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      R"({"name":"%s","ph":"B","ts":%)" PRIu64
                      R"(,"pid":0,"tid":%u})",
                      name.c_str(), begin, tid);
        add(begin, buf);
        std::snprintf(buf, sizeof(buf),
                      R"({"name":"%s","ph":"E","ts":%)" PRIu64
                      R"(,"pid":0,"tid":%u})",
                      name.c_str(), end, tid);
        add(end, buf);
    }

    void
    counter(const std::string &name, std::uint64_t ts, double value)
    {
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      R"({"name":"%s","ph":"C","ts":%)" PRIu64
                      R"(,"pid":0,"tid":0,"args":{"value":%.6g}})",
                      name.c_str(), ts, value);
        add(ts, buf);
    }

    std::vector<Event> events;

  private:
    std::uint64_t seq = 0;
};

} // namespace

bool
writeChromeTrace(const TelemetryResult &t, const std::string &path)
{
    TraceEvents sink;

    // Thread-name metadata so Perfetto labels each core's track.
    unsigned cores = static_cast<unsigned>(t.stallCycles.size());
    for (unsigned c = 0; c < cores; ++c) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      R"({"name":"thread_name","ph":"M","pid":0,)"
                      R"("tid":%u,"args":{"name":"core %u"}})",
                      c, c);
        sink.add(0, buf);
    }

    // Region spans: the region body [start, drainStart) nests the
    // boundary drain [drainStart, end) named by its end cause.
    for (const TelemetryRegionEvent &e : t.regionEvents) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      R"({"name":"region","ph":"B","ts":%)" PRIu64
                      R"(,"pid":0,"tid":%u})",
                      e.start, e.core);
        sink.add(e.start, buf);
        std::string drain = std::string("drain:") + causeName(e.cause);
        sink.span(e.core, e.drainStart, e.end, drain);
        std::snprintf(buf, sizeof(buf),
                      R"({"name":"region","ph":"E","ts":%)" PRIu64
                      R"(,"pid":0,"tid":%u})",
                      e.end, e.core);
        sink.add(e.end, buf);
    }

    // Power spans live on their own per-core tracks (tid 1000+core):
    // an outage can straddle a region-span boundary, which would break
    // B/E nesting if both shared a track.
    bool power_track[64] = {};
    for (const TelemetryPowerEvent &e : t.powerEvents) {
        unsigned tid = 1000 + e.core;
        if (e.core < 64 && !power_track[e.core]) {
            power_track[e.core] = true;
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          R"({"name":"thread_name","ph":"M","pid":0,)"
                          R"("tid":%u,"args":{"name":"core %u power"}})",
                          tid, e.core);
            sink.add(0, buf);
        }
        std::uint64_t end = e.recovered ? e.recover : e.fail;
        sink.span(tid, e.fail, end, "power-outage");
    }

    // Request spans (serving harness) on per-core tracks (tid
    // 2000+core). Spans are [start, finish) on the open-loop
    // timeline; the Lindley recursion guarantees start_{i+1} >=
    // finish_i per core, so B/E pairs never overlap within a track.
    bool request_track[64] = {};
    for (const TelemetryRequestSpan &e : t.requestSpans) {
        unsigned tid = 2000 + e.core;
        if (e.core < 64 && !request_track[e.core]) {
            request_track[e.core] = true;
            char buf[192];
            std::snprintf(
                buf, sizeof(buf),
                R"({"name":"thread_name","ph":"M","pid":0,)"
                R"("tid":%u,"args":{"name":"core %u requests"}})",
                tid, e.core);
            sink.add(0, buf);
        }
        std::uint64_t end = std::max(e.finish, e.start + 1);
        sink.span(tid, e.start, end, "req " + std::to_string(e.seq));
    }

    // Counter tracks: one "C" stream per series, bucket means at
    // bucket start cycles.
    for (const TelemetrySeries &s : t.series) {
        std::string name = s.name;
        if (s.core >= 0)
            name += "/c" + std::to_string(s.core);
        for (std::size_t i = 0; i < s.cycles.size(); ++i) {
            if (s.counts[i] == 0)
                continue;
            double mean = static_cast<double>(s.sums[i]) /
                          static_cast<double>(s.counts[i]);
            sink.counter(name, s.cycles[i], mean);
        }
    }

    std::sort(sink.events.begin(), sink.events.end(),
              [](const Event &a, const Event &b) {
                  return a.ts != b.ts ? a.ts < b.ts : a.seq < b.seq;
              });

    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < sink.events.size(); ++i) {
        out << sink.events[i].json;
        if (i + 1 < sink.events.size())
            out << ',';
        out << '\n';
    }
    out << "]}\n";
    out.flush();
    return static_cast<bool>(out);
}

} // namespace obs
} // namespace ppa
