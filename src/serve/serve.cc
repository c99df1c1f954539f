#include "serve/serve.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <vector>

#include "baselines/durability.hh"
#include "common/logging.hh"
#include "obs/event_sink.hh"
#include "sim/report.hh"
#include "sim/run.hh"

namespace ppa
{
namespace serve
{

namespace
{

// ---------------------------------------------------------------------
// Address-space layout. Every region is thread-private (the streams
// are DRF by construction) and all regions are pairwise disjoint:
// control words live below 0x1000'0000, data regions above it.
// ---------------------------------------------------------------------

constexpr Addr kAckBase = 0x0800'0000;     ///< per-thread ack word
constexpr Addr kScratchBase = 0x0804'0000; ///< kv GET fold sink
constexpr Addr kCommitBase = 0x0808'0000;  ///< undo/redo commit record
constexpr Addr kLogBase = 0x0900'0000;     ///< undo/redo log rings
constexpr Addr kLogStride = 0x1'0000;      ///< 64 KiB per thread
constexpr Addr kDataBase = 0x1000'0000;    ///< per-thread data region
constexpr Addr kDataStride = 0x100'0000;   ///< 16 MiB per thread

Addr ackAddr(unsigned t) { return kAckBase + Addr{t} * 64; }
Addr scratchAddr(unsigned t) { return kScratchBase + Addr{t} * 64; }
Addr commitAddr(unsigned t) { return kCommitBase + Addr{t} * 64; }
Addr logBase(unsigned t) { return kLogBase + Addr{t} * kLogStride; }
Addr dataBase(unsigned t) { return kDataBase + Addr{t} * kDataStride; }

// ---------------------------------------------------------------------
// Modeled recovery costs (docs/SERVING.md). Constants, not measured:
// recovery is not simulated cycle-by-cycle, it is priced from state
// the crash leaves behind.
// ---------------------------------------------------------------------

/** PPA: power-on handshake before CSQ replay starts. */
constexpr Cycle kRecoverPpaBase = 1000;
/** PPA: replay one checkpointed CSQ entry to NVM. */
constexpr Cycle kRecoverPpaPerCsqEntry = 64;
/** Software schemes: process restart plus recovery-code entry. */
constexpr Cycle kRecoverSwBase = 2000;
/** Undo/redo logging: read and apply one log entry. */
constexpr Cycle kRecoverSwPerLogEntry = 128;

/** Data stores the undo/redo transform logs per request (the fence
 *  and ack/commit machinery is txn overhead, not logged data). */
double
storesLoggedPerRequest(const ServeConfig &cfg)
{
    switch (cfg.workload) {
      case ServeWorkload::Tatp:
        return 2.0;
      case ServeWorkload::Tpcc:
        return 7.0;
      case ServeWorkload::Kv:
        // GET folds into one scratch store; SET writes 9 words.
        return (static_cast<double>(cfg.readPct) * 1.0 +
                static_cast<double>(100 - cfg.readPct) * 9.0) /
               100.0;
    }
    return 0.0;
}

/** Splitmix64-style (seed, thread, salt) mixer so every stream and
 *  arrival process draws from an independent, reproducible sequence. */
std::uint64_t
mixSeed(std::uint64_t seed, unsigned t, std::uint64_t salt)
{
    std::uint64_t x = seed + 0x9E3779B97F4A7C15ull * (salt + 1) +
                      (static_cast<std::uint64_t>(t) << 32);
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
}

constexpr std::uint64_t kStreamSalt = 1;
constexpr std::uint64_t kArrivalSalt = 2;

std::uint64_t
requestsForThread(const ServeConfig &cfg, unsigned t)
{
    std::uint64_t base = cfg.requests / cfg.threads;
    std::uint64_t rem = cfg.requests % cfg.threads;
    return base + (t < rem ? 1 : 0);
}

/** Hang guard for System::run — same worst-case cycles-per-inst
 *  allowance runWorkload uses. 64 bounds the per-request instruction
 *  count across all workloads including transform inflation. */
Cycle
cycleCap(const ServeConfig &cfg)
{
    std::uint64_t per_thread = requestsForThread(cfg, 0);
    return (per_thread * 64 + 1024) * 400;
}

SystemVariant
systemVariantFor(ServeVariant v)
{
    // The software schemes rely on clwb/fence ordering, which the
    // ReplayCache persist mode implements (fences retire only after
    // outstanding clwb acknowledgements).
    return v == ServeVariant::Ppa ? SystemVariant::Ppa
                                  : SystemVariant::ReplayCache;
}

/**
 * Records the commit cycle of every ack store — the completion event
 * of each request. One sink among any others on the core (telemetry,
 * auditors).
 */
class AckTracker : public obs::EventSink
{
  public:
    explicit AckTracker(Addr ack) : ackWord(MemImage::wordAlign(ack)) {}

    void onCycle(Cycle cycle) override { now = cycle; }

    void
    onStoreCommit(Addr addr, Word value, unsigned, bool, bool) override
    {
        if (addr != ackWord)
            return;
        PPA_ASSERT(value == ackCycles.size() + 1,
                   "ack sequence out of order: store carries ", value,
                   " but ", ackCycles.size(), " requests completed");
        ackCycles.push_back(now);
    }

    /** Commit cycle of request i (0-based; sequence number i + 1). */
    std::vector<Cycle> ackCycles;

  private:
    Addr ackWord;
    Cycle now = 0;
};

/** Crash views the measuring run keeps per failure point; the grid
 *  step doubles past that, so a point moves by less than about
 *  1/16 of the spacing between points (docs/SERVING.md). */
constexpr std::size_t kViewsPerPoint = 32;

/** What a power failure at one grid stop would leave. */
struct ViewStop
{
    Cycle cycle = 0;
    sim::Run::CrashView view;
    /** Per core: the requests acked by this cycle. */
    std::vector<std::size_t> acked;
};

} // namespace

ServeRun
makeServeRun(const ServeConfig &cfg, ServeVariant variant)
{
    PPA_ASSERT(cfg.threads > 0, "serve needs at least one thread");
    ExperimentKnobs knobs;
    knobs.threads = cfg.threads;
    knobs.telemetry = cfg.telemetry;
    knobs.telemetrySampleCycles = cfg.telemetrySampleCycles;
    knobs.telemetrySeriesCap = cfg.telemetrySeriesCap;
    ServeRun sr;
    sr.run = std::make_unique<sim::Run>(systemVariantFor(variant), knobs,
                                        cfg.threads);
    sim::Run &run = *sr.run;
    for (unsigned t = 0; t < cfg.threads; ++t) {
        RequestStreamConfig rc;
        rc.workload = cfg.workload;
        rc.requests = requestsForThread(cfg, t);
        rc.keys = cfg.keys;
        rc.skew = cfg.skew;
        rc.readPct = cfg.readPct;
        rc.seed = mixSeed(cfg.seed, t, kStreamSalt);
        rc.dataBase = dataBase(t);
        rc.ackAddr = ackAddr(t);
        rc.scratchAddr = scratchAddr(t);
        run.addSource(std::make_unique<RequestSource>(rc));

        DurabilityParams dp;
        dp.publishAddr = ackAddr(t);
        dp.commitAddr = commitAddr(t);
        dp.logBase = logBase(t);
        if (variant == ServeVariant::UndoRedoLog)
            run.stack<UndoRedoLogTransform>(t, dp);
        else if (variant == ServeVariant::DelayFree)
            run.stack<DelayFreeTransform>(t, dp);

        sr.acks.push_back(&run.watch<AckTracker>(t, ackAddr(t)).ackCycles);
        // The durable frontier: the last sequence number whose ack
        // (PPA, delay-free) or commit record (undo/redo logging)
        // persisted.
        sr.frontier.push_back(variant == ServeVariant::UndoRedoLog
                                  ? commitAddr(t)
                                  : ackAddr(t));
    }
    run.bindSources();
    return sr;
}

Cycle
modelRecovery(const ServeConfig &cfg, ServeVariant variant,
              const std::vector<std::size_t> &csq_entries,
              std::uint64_t lost_requests)
{
    switch (variant) {
      case ServeVariant::Ppa: {
        std::uint64_t entries = 0;
        for (std::size_t n : csq_entries)
            entries += n;
        return kRecoverPpaBase + entries * kRecoverPpaPerCsqEntry;
      }
      case ServeVariant::UndoRedoLog: {
        // Recovery scans the log tail past the last durable commit
        // record: the entries of every completed-but-lost request.
        double entries = static_cast<double>(lost_requests) *
                         storesLoggedPerRequest(cfg);
        auto n = static_cast<std::uint64_t>(std::ceil(entries));
        return kRecoverSwBase + n * kRecoverSwPerLogEntry;
      }
      case ServeVariant::DelayFree:
        // No log to scan; published state is usable as-is.
        return kRecoverSwBase;
    }
    return 0;
}

const char *
serveVariantToken(ServeVariant v)
{
    switch (v) {
      case ServeVariant::Ppa:
        return "ppa";
      case ServeVariant::UndoRedoLog:
        return "undo-redo-log";
      case ServeVariant::DelayFree:
        return "delay-free";
    }
    return "?";
}

bool
serveVariantFromToken(const std::string &token, ServeVariant &out)
{
    if (token == "ppa") {
        out = ServeVariant::Ppa;
        return true;
    }
    if (token == "undo-redo-log") {
        out = ServeVariant::UndoRedoLog;
        return true;
    }
    if (token == "delay-free") {
        out = ServeVariant::DelayFree;
        return true;
    }
    return false;
}

std::vector<ServeVariant>
allServeVariants()
{
    return {ServeVariant::Ppa, ServeVariant::UndoRedoLog,
            ServeVariant::DelayFree};
}

ServeVariantStats
runServeVariant(const ServeConfig &cfg, ServeVariant variant)
{
    ServeVariantStats out;
    out.variant = variant;
    out.requests = cfg.requests;

    ServeRun sr = makeServeRun(cfg, variant);
    sim::Run *run = sr.run.get();
    System &sys = run->system();
    run->attachTelemetry();

    // Failure views: the measuring run stops at every multiple of a
    // power-of-two grid step and reads what a power failure there
    // would leave durable (sim::Run::crashView), without crashing.
    // Past kViewsPerPoint views per point the step doubles and the
    // views off the new grid go, so stops[i] is the view at i * grid.
    const Cycle cap = cycleCap(cfg);
    const std::size_t max_views =
        kViewsPerPoint * (std::size_t{cfg.failures} + 1);
    std::vector<ViewStop> stops;
    Cycle grid = 1;
    while (cfg.failures > 0) {
        if (sys.cycle() % grid == 0) {
            ViewStop &s = stops.emplace_back();
            s.cycle = sys.cycle();
            s.view = run->crashView(sr.frontier);
            for (const std::vector<Cycle> *acks : sr.acks)
                s.acked.push_back(acks->size());
        }
        if (stops.size() > max_views) {
            grid *= 2;
            std::erase_if(stops, [grid](const ViewStop &s) {
                return s.cycle % grid != 0;
            });
        }
        if (sys.allDone() || sys.cycle() >= cap)
            break;
        sys.runUntilCycle(std::min(cap, (sys.cycle() / grid + 1) * grid));
    }
    sys.run(cap);

    for (unsigned t = 0; t < cfg.threads; ++t) {
        const std::vector<Cycle> &acks = *sr.acks[t];
        out.completed += acks.size();
        if (!acks.empty())
            out.serviceCycles = std::max(out.serviceCycles, acks.back());
        out.committedInsts += sys.core(t).committedInsts();
        out.committedStores += sys.core(t).committedStores();
        if (auto *tf = dynamic_cast<const UndoRedoLogTransform *>(
                &run->top(t))) {
            out.injectedClwbs += tf->injectedClwbs();
            out.injectedFences += tf->injectedFences();
            out.injectedLogStores += tf->injectedLogStores();
        } else if (auto *df = dynamic_cast<const DelayFreeTransform *>(
                       &run->top(t))) {
            out.injectedClwbs += df->injectedClwbs();
            out.injectedFences += df->injectedFences();
        }
    }
    out.nvmWrites = sys.memory().nvm().writeCount();
    out.nvmBytesWritten = sys.memory().nvm().bytesWritten();
    out.telemetry = run->harvestTelemetry();

    // Open-loop latency: remap the simulated service timeline onto
    // the arrival process with the Lindley recursion (see serve.hh).
    double makespan = 0.0;
    for (unsigned t = 0; t < cfg.threads; ++t) {
        const std::vector<Cycle> &acks = *sr.acks[t];
        ArrivalProcess arrivals(cfg.arrival,
                                mixSeed(cfg.seed, t, kArrivalSalt));
        Cycle prev_ack = 0;
        double prev_finish = 0.0;
        for (std::size_t i = 0; i < acks.size(); ++i) {
            double arrival = arrivals.next();
            auto service = static_cast<double>(acks[i] - prev_ack);
            prev_ack = acks[i];
            double start = std::max(arrival, prev_finish);
            double finish = start + service;
            prev_finish = finish;
            out.latency.sample(
                static_cast<std::uint64_t>(std::llround(
                    finish - arrival)));
            if (cfg.telemetry) {
                if (out.telemetry.requestSpans.size() <
                    obs::kRequestSpanCap) {
                    obs::TelemetryRequestSpan span;
                    span.core = t;
                    span.seq = i + 1;
                    span.arrival = static_cast<std::uint64_t>(
                        std::llround(arrival));
                    span.start = static_cast<std::uint64_t>(
                        std::llround(start));
                    span.finish = static_cast<std::uint64_t>(
                        std::llround(finish));
                    out.telemetry.requestSpans.push_back(span);
                } else {
                    ++out.telemetry.droppedRequestSpans;
                }
            }
        }
        makespan = std::max(makespan, prev_finish);
    }
    out.offeredPerKcycle =
        static_cast<double>(cfg.threads) * 1000.0 / cfg.arrival.meanGap;
    out.achievedPerKcycle =
        makespan > 0.0
            ? static_cast<double>(out.completed) * 1000.0 / makespan
            : 0.0;

    // Failure study: crash points evenly spaced over the measured
    // service timeline, each rounded down to the view grid.
    if (cfg.failures == 0 || out.serviceCycles == 0)
        return out;
    out.failureGrid = grid;
    for (unsigned k = 1; k <= cfg.failures; ++k) {
        Cycle point = std::max<Cycle>(
            out.serviceCycles * k / (cfg.failures + 1), 1);
        PPA_ASSERT(point / grid < stops.size(), "no crash view at cycle ",
                   point / grid * grid);
        const ViewStop &at = stops[point / grid];

        FailurePoint fp;
        fp.cycle = at.cycle;
        for (unsigned t = 0; t < cfg.threads; ++t) {
            std::uint64_t completed = at.acked[t];
            std::uint64_t durable = std::min(at.view.words[t], completed);

            fp.completedRequests += completed;
            fp.durableRequests += durable;
            fp.lostRequests += completed - durable;

            // Data-loss window: how far back acknowledged work can
            // disappear — from the completion of the first lost
            // request to the crash. Zero when every completed request
            // survived.
            Cycle window =
                durable < completed ? at.cycle - (*sr.acks[t])[durable] : 0;
            fp.lossWindow = std::max(fp.lossWindow, window);
        }
        fp.recoveryCycles =
            modelRecovery(cfg, variant, at.view.csq, fp.lostRequests);
        out.failures.push_back(fp);
    }
    return out;
}

ServeStats
runServeStudy(const ServeConfig &cfg,
              const std::vector<ServeVariant> &variants)
{
    ServeStats stats;
    stats.config = cfg;
    stats.variants.resize(variants.size());
    // Variants are independent: any worker count fills the same slots.
    sim::runIndexed(cfg.workers, variants.size(), [&](std::size_t i) {
        stats.variants[i] = runServeVariant(cfg, variants[i]);
    });
    return stats;
}

// ---------------------------------------------------------------------
// JSON emission.
// ---------------------------------------------------------------------

namespace
{

double
vecMean(const std::vector<std::uint64_t> &v)
{
    if (v.empty())
        return 0.0;
    double sum = 0.0;
    for (std::uint64_t x : v)
        sum += static_cast<double>(x);
    return sum / static_cast<double>(v.size());
}

std::uint64_t
vecP50(std::vector<std::uint64_t> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    // Same ceil-rank convention as stats::Histogram::percentile.
    std::size_t rank = (v.size() + 1) / 2;
    return v[rank - 1];
}

std::uint64_t
vecMax(const std::vector<std::uint64_t> &v)
{
    std::uint64_t m = 0;
    for (std::uint64_t x : v)
        m = std::max(m, x);
    return m;
}

void
summaryToJson(std::ostringstream &os, const char *name,
              const std::vector<std::uint64_t> &v)
{
    os << "\"" << name << "\": {\"mean\": "
       << metrics::formatDouble(vecMean(v)) << ", \"p50\": " << vecP50(v)
       << ", \"max\": " << vecMax(v) << "}";
}

void
latencyToJson(std::ostringstream &os, const LogHistogram &h)
{
    os << "{\"count\": " << h.count()
       << ", \"mean\": " << metrics::formatDouble(h.mean())
       << ", \"min\": " << h.min() << ", \"max\": " << h.max()
       << ", \"p50\": " << h.percentile(0.50)
       << ", \"p95\": " << h.percentile(0.95)
       << ", \"p99\": " << h.percentile(0.99)
       << ", \"p999\": " << h.percentile(0.999)
       << ", \"p9999\": " << h.percentile(0.9999)
       << ", \"scheme\": \"log16\", \"buckets\": [";
    auto buckets = h.nonZeroBuckets();
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        os << (i ? ", " : "") << "[" << buckets[i].first << ", "
           << buckets[i].second << "]";
    }
    os << "]}";
}

void
variantToJson(std::ostringstream &os, const ServeVariantStats &vs)
{
    os << "{\"variant\": \"" << serveVariantToken(vs.variant)
       << "\", \"stats\": {\"serve\": {";
    os << "\"requests\": " << vs.requests
       << ", \"completed\": " << vs.completed
       << ", \"serviceCycles\": " << vs.serviceCycles
       << ", \"committedInsts\": " << vs.committedInsts
       << ", \"committedStores\": " << vs.committedStores
       << ", \"offeredPerKcycle\": "
       << metrics::formatDouble(vs.offeredPerKcycle)
       << ", \"achievedPerKcycle\": "
       << metrics::formatDouble(vs.achievedPerKcycle);
    os << ", \"latency\": ";
    latencyToJson(os, vs.latency);
    os << ", \"injected\": {\"clwbs\": " << vs.injectedClwbs
       << ", \"fences\": " << vs.injectedFences
       << ", \"logStores\": " << vs.injectedLogStores << "}";
    os << ", \"nvm\": {\"writes\": " << vs.nvmWrites
       << ", \"bytesWritten\": " << vs.nvmBytesWritten << "}";

    std::vector<std::uint64_t> recovery, loss, lost;
    os << ", \"failures\": {\"grid\": " << vs.failureGrid
       << ", \"points\": [";
    for (std::size_t i = 0; i < vs.failures.size(); ++i) {
        const FailurePoint &fp = vs.failures[i];
        os << (i ? ", " : "") << "{\"cycle\": " << fp.cycle
           << ", \"recoveryCycles\": " << fp.recoveryCycles
           << ", \"lossWindow\": " << fp.lossWindow
           << ", \"completedRequests\": " << fp.completedRequests
           << ", \"durableRequests\": " << fp.durableRequests
           << ", \"lostRequests\": " << fp.lostRequests << "}";
        recovery.push_back(fp.recoveryCycles);
        loss.push_back(fp.lossWindow);
        lost.push_back(fp.lostRequests);
    }
    os << "], ";
    summaryToJson(os, "recovery", recovery);
    os << ", ";
    summaryToJson(os, "lossWindow", loss);
    os << ", ";
    summaryToJson(os, "lostRequests", lost);
    os << "}";
    os << "}";
    if (vs.telemetry.enabled)
        os << ", \"telemetry\": "
           << metrics::telemetryToJson(vs.telemetry);
    os << "}}";
}

} // namespace

std::string
serveToJson(const ServeStats &stats)
{
    const ServeConfig &cfg = stats.config;
    std::ostringstream os;
    os << "{\"schemaVersion\": " << metrics::schemaVersion
       << ", \"kind\": \"serve\", \"serve\": {";
    os << "\"config\": {\"workload\": \""
       << serveWorkloadToken(cfg.workload)
       << "\", \"requests\": " << cfg.requests
       << ", \"threads\": " << cfg.threads << ", \"keys\": " << cfg.keys
       << ", \"skew\": " << metrics::formatDouble(cfg.skew)
       << ", \"readPct\": " << cfg.readPct
       << ", \"arrival\": {\"kind\": \""
       << arrivalToken(cfg.arrival.kind) << "\", \"meanGap\": "
       << metrics::formatDouble(cfg.arrival.meanGap)
       << ", \"burstFactor\": "
       << metrics::formatDouble(cfg.arrival.burstFactor)
       << ", \"period\": " << metrics::formatDouble(cfg.arrival.period)
       << ", \"onFraction\": "
       << metrics::formatDouble(cfg.arrival.onFraction) << "}"
       << ", \"failures\": " << cfg.failures
       << ", \"seed\": " << cfg.seed << "}";
    os << ", \"variants\": [";
    for (std::size_t i = 0; i < stats.variants.size(); ++i) {
        if (i)
            os << ", ";
        variantToJson(os, stats.variants[i]);
    }
    os << "]}}";
    return os.str();
}

} // namespace serve
} // namespace ppa
