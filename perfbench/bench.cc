#include "bench.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iostream>

namespace perfbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double
percentile(std::vector<double> v, double frac)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(frac * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

namespace
{

thread_local std::vector<int> openSpans;

unsigned
threadNumber()
{
    static std::atomic<unsigned> next{0};
    thread_local unsigned mine = next.fetch_add(1);
    return mine;
}

} // namespace

int
Tracer::begin(const std::string &name, std::uint64_t id, int parent)
{
    return record(name, id, nowNs(), -1, parent);
}

void
Tracer::end(int handle)
{
    std::int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mu);
    spans[static_cast<std::size_t>(handle)].endNs = t;
}

int
Tracer::record(const std::string &name, std::uint64_t id,
               std::int64_t start_ns, std::int64_t end_ns, int parent)
{
    Span s{name, id, start_ns, end_ns, parent, threadNumber()};
    std::lock_guard<std::mutex> lock(mu);
    spans.push_back(std::move(s));
    return static_cast<int>(spans.size() - 1);
}

int
Tracer::current()
{
    return openSpans.empty() ? -1 : openSpans.back();
}

std::map<std::string, Tracer::Totals>
Tracer::totals() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<double> childSeconds(spans.size(), 0.0);
    for (const Span &s : spans) {
        if (s.parent >= 0)
            childSeconds[static_cast<std::size_t>(s.parent)] +=
                static_cast<double>(s.endNs - s.startNs) * 1e-9;
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        double d =
            static_cast<double>(spans[i].endNs - spans[i].startNs) * 1e-9;
        Totals &t = out[spans[i].name];
        ++t.count;
        t.selfSeconds += d - childSeconds[i];
    }
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu);
    std::ofstream os(path);
    if (!os)
        return false;
    std::int64_t origin = spans.empty() ? 0 : spans.front().startNs;
    for (const Span &s : spans)
        origin = std::min(origin, s.startNs);
    os << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", "
           << "\"pid\": 1, \"tid\": " << s.thread << ", \"ts\": "
           << static_cast<double>(s.startNs - origin) * 1e-3
           << ", \"dur\": " << static_cast<double>(s.endNs - s.startNs) * 1e-3
           << ", \"args\": {\"id\": " << s.id << ", \"span\": " << i
           << ", \"parent\": " << s.parent << "}}"
           << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    return static_cast<bool>(os);
}

ScopedSpan::ScopedSpan(Tracer *tracer, const std::string &name,
                       std::uint64_t id, int parent)
    : tr(tracer)
{
    if (!tr)
        return;
    spanHandle = tr->begin(name, id, parent);
    openSpans.push_back(spanHandle);
}

ScopedSpan::~ScopedSpan()
{
    if (!tr)
        return;
    tr->end(spanHandle);
    openSpans.pop_back();
}

void
Results::check(bool ok, const std::string &what)
{
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (failures.size() < 16)
        failures.push_back(what);
    std::cerr << "perfbench: check failed: " << what << "\n";
}

void
Results::set(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mu);
    metrics[name] = value;
}

void
addStallCycles(const ppa::obs::TelemetryResult &t, SimCounts &sim)
{
    using ppa::obs::CycleClass;
    sim["telemetry:mem.wpq_full_cycles"] +=
        static_cast<double>(t.classCycles(CycleClass::WpqFull));
    sim["telemetry:mem.nvm_bw_cycles"] +=
        static_cast<double>(t.classCycles(CycleClass::NvmBandwidth));
    sim["telemetry:ppa.csq_full_cycles"] +=
        static_cast<double>(t.classCycles(CycleClass::CsqFull));
}

TickCost
tickProbe(ppa::System &system, ppa::Cycle cycles)
{
    std::int64_t memNs = 0, coreNs = 0;
    std::uint64_t sampled = 0;
    const unsigned cores = system.numCores();
    for (ppa::Cycle c = 0; c < cycles && !system.allDone(); ++c) {
        if (c % kTickSampleStride != 0) {
            system.memory().tick(c);
            for (unsigned i = 0; i < cores; ++i)
                system.core(i).tick();
            continue;
        }
        std::int64_t t0 = nowNs();
        system.memory().tick(c);
        std::int64_t t1 = nowNs();
        for (unsigned i = 0; i < cores; ++i)
            system.core(i).tick();
        std::int64_t t2 = nowNs();
        memNs += t1 - t0;
        coreNs += t2 - t1;
        ++sampled;
    }
    TickCost cost;
    if (sampled) {
        cost.memNsPerCycle =
            static_cast<double>(memNs) / static_cast<double>(sampled);
        cost.coreNsPerCoreCycle =
            static_cast<double>(coreNs) /
            static_cast<double>(sampled * cores);
    }
    return cost;
}

namespace
{

/** Words of the probe's large table (4 MiB); its small table is the
 *  first 256 KiB of it. */
constexpr std::uint32_t kProbeWords = 1u << 20;
constexpr std::uint32_t kProbeSmallWords = 1u << 16;

const std::vector<std::uint32_t> &
probeTable()
{
    static const std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> t(kProbeWords);
        std::uint64_t x = 0x9E3779B97F4A7C15ull;
        for (std::uint32_t &w : t) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            w = static_cast<std::uint32_t>(x >> 16);
        }
        return t;
    }();
    return table;
}

/** @p steps xorshift-indexed reads of the first @p words words. */
std::uint64_t
probeWalk(std::uint32_t words, std::uint64_t steps)
{
    const std::vector<std::uint32_t> &t = probeTable();
    std::uint64_t x = 88172645463325252ull, acc = 0;
    std::uint32_t i = 0;
    for (std::uint64_t s = 0; s < steps; ++s) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        i = (i + static_cast<std::uint32_t>(x)) & (words - 1);
        if (t[i] & 1)
            acc += t[i];
        else
            acc ^= x;
    }
    return acc;
}

} // namespace

double
hostProbeSeconds()
{
    probeTable();
    std::int64_t t0 = nowNs();
    std::uint64_t acc = probeWalk(kProbeWords, 2'000'000) ^
                        probeWalk(kProbeSmallWords, 4'000'000);
    double s = secondsSince(t0);
    // Keep the walks' results alive so they are not optimised away.
    static std::atomic<std::uint64_t> sink{0};
    sink.fetch_xor(acc, std::memory_order_relaxed);
    return s;
}

double
spanSelfSeconds(const std::map<std::string, Tracer::Totals> &t,
                const std::string &name)
{
    auto it = t.find(name);
    if (it == t.end() || it->second.count == 0)
        return 0.0;
    return it->second.selfSeconds /
           static_cast<double>(it->second.count);
}

} // namespace perfbench
