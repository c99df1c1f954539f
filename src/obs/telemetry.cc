#include "obs/telemetry.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "core/core.hh"
#include "mem/hierarchy.hh"

namespace ppa
{
namespace obs
{

const char *
cycleClassKey(CycleClass c)
{
    switch (c) {
      case CycleClass::Active:
        return "active";
      case CycleClass::FetchStarved:
        return "fetchStarved";
      case CycleClass::RobFull:
        return "robFull";
      case CycleClass::CsqFull:
        return "csqFull";
      case CycleClass::WpqFull:
        return "wpqFull";
      case CycleClass::NvmBandwidth:
        return "nvmBandwidth";
      case CycleClass::Other:
        return "other";
      case CycleClass::Idle:
        return "idle";
    }
    return "?";
}

const char *
cycleClassLabel(CycleClass c)
{
    switch (c) {
      case CycleClass::Active:
        return "active (committing)";
      case CycleClass::FetchStarved:
        return "fetch-starved";
      case CycleClass::RobFull:
        return "ROB-full";
      case CycleClass::CsqFull:
        return "CSQ-full";
      case CycleClass::WpqFull:
        return "WPQ-full";
      case CycleClass::NvmBandwidth:
        return "NVM-bandwidth";
      case CycleClass::Other:
        return "other (exec/mem latency)";
      case CycleClass::Idle:
        return "idle (stream done)";
    }
    return "?";
}

namespace
{

CycleClass
classOf(StallReason r)
{
    switch (r) {
      case StallReason::RobFull:
        return CycleClass::RobFull;
      case StallReason::CsqFull:
        return CycleClass::CsqFull;
      case StallReason::WpqFull:
        return CycleClass::WpqFull;
      case StallReason::NvmBandwidth:
        return CycleClass::NvmBandwidth;
    }
    return CycleClass::Other;
}

bool
isDrainReason(StallReason r)
{
    return r == StallReason::CsqFull || r == StallReason::WpqFull ||
           r == StallReason::NvmBandwidth;
}

} // namespace

// --------------------------------------------------------------------
// TelemetrySeries
// --------------------------------------------------------------------

std::uint64_t
TelemetrySeries::samples() const
{
    std::uint64_t n = 0;
    for (std::uint64_t c : counts)
        n += c;
    return n;
}

std::uint64_t
TelemetrySeries::total() const
{
    std::uint64_t n = 0;
    for (std::uint64_t s : sums)
        n += s;
    return n;
}

double
TelemetrySeries::mean() const
{
    std::uint64_t n = samples();
    return n ? static_cast<double>(total()) / static_cast<double>(n)
             : 0.0;
}

double
TelemetrySeries::percentile(double frac) const
{
    std::uint64_t n = samples();
    if (n == 0)
        return 0.0;
    // Ceil-rank percentile over bucket means, weighted by each
    // bucket's raw-sample count (the Histogram convention).
    std::vector<std::pair<double, std::uint64_t>> buckets;
    buckets.reserve(sums.size());
    for (std::size_t i = 0; i < sums.size(); ++i) {
        if (counts[i] == 0)
            continue;
        buckets.emplace_back(static_cast<double>(sums[i]) /
                                 static_cast<double>(counts[i]),
                             counts[i]);
    }
    std::sort(buckets.begin(), buckets.end());
    std::uint64_t rank = static_cast<std::uint64_t>(
        frac * static_cast<double>(n));
    if (rank < 1)
        rank = 1;
    if (rank > n)
        rank = n;
    std::uint64_t seen = 0;
    for (const auto &[value, count] : buckets) {
        seen += count;
        if (seen >= rank)
            return value;
    }
    return buckets.empty() ? 0.0 : buckets.back().first;
}

double
TelemetrySeries::maxBucketMean() const
{
    double best = 0.0;
    for (std::size_t i = 0; i < sums.size(); ++i) {
        if (counts[i] == 0)
            continue;
        best = std::max(best, static_cast<double>(sums[i]) /
                                  static_cast<double>(counts[i]));
    }
    return best;
}

// --------------------------------------------------------------------
// TelemetryResult
// --------------------------------------------------------------------

std::uint64_t
TelemetryResult::classCycles(CycleClass c) const
{
    std::uint64_t n = 0;
    for (const auto &row : stallCycles)
        n += row[static_cast<std::size_t>(c)];
    return n;
}

const TelemetrySeries *
TelemetryResult::findSeries(const std::string &name, int core) const
{
    for (const TelemetrySeries &s : series) {
        if (s.core == core && s.name == name)
            return &s;
    }
    return nullptr;
}

namespace
{

/** Halve a materialized series in place (pairwise bucket merge). */
void
mergeSeriesPairs(TelemetrySeries &s)
{
    std::size_t out = 0;
    for (std::size_t i = 0; i + 1 < s.cycles.size(); i += 2, ++out) {
        s.cycles[out] = s.cycles[i];
        s.counts[out] = s.counts[i] + s.counts[i + 1];
        s.sums[out] = s.sums[i] + s.sums[i + 1];
    }
    if (s.cycles.size() % 2) { // odd tail carries over unmerged
        s.cycles[out] = s.cycles.back();
        s.counts[out] = s.counts.back();
        s.sums[out] = s.sums.back();
        ++out;
    }
    s.cycles.resize(out);
    s.counts.resize(out);
    s.sums.resize(out);
}

} // namespace

void
appendTelemetry(TelemetryResult &dst, const TelemetryResult &seg,
                std::uint64_t cycle_offset)
{
    if (!seg.enabled)
        return;
    dst.enabled = true;
    if (dst.sampleCycles == 0)
        dst.sampleCycles = seg.sampleCycles;
    if (dst.seriesCap == 0)
        dst.seriesCap = seg.seriesCap;
    if (dst.stallCycles.size() < seg.stallCycles.size())
        dst.stallCycles.resize(seg.stallCycles.size());
    for (std::size_t c = 0; c < seg.stallCycles.size(); ++c) {
        for (unsigned k = 0; k < kCycleClassCount; ++k)
            dst.stallCycles[c][k] += seg.stallCycles[c][k];
    }
    dst.coveredCycles += seg.coveredCycles;

    for (const TelemetrySeries &in : seg.series) {
        TelemetrySeries *out = nullptr;
        for (TelemetrySeries &s : dst.series) {
            if (s.core == in.core && s.name == in.name) {
                out = &s;
                break;
            }
        }
        if (!out) {
            dst.series.push_back(TelemetrySeries{in.name, in.core,
                                                 {}, {}, {}});
            out = &dst.series.back();
        }
        for (std::size_t i = 0; i < in.cycles.size(); ++i) {
            out->cycles.push_back(in.cycles[i] + cycle_offset);
            out->counts.push_back(in.counts[i]);
            out->sums.push_back(in.sums[i]);
        }
        while (dst.seriesCap && out->cycles.size() > dst.seriesCap)
            mergeSeriesPairs(*out);
    }

    for (const TelemetryRegionEvent &e : seg.regionEvents) {
        if (dst.regionEvents.size() >= kRegionEventCap) {
            ++dst.droppedRegionEvents;
            continue;
        }
        TelemetryRegionEvent shifted = e;
        shifted.start += cycle_offset;
        shifted.drainStart += cycle_offset;
        shifted.end += cycle_offset;
        dst.regionEvents.push_back(shifted);
    }
    dst.droppedRegionEvents += seg.droppedRegionEvents;

    for (const TelemetryPowerEvent &e : seg.powerEvents) {
        TelemetryPowerEvent shifted = e;
        shifted.fail += cycle_offset;
        if (shifted.recovered)
            shifted.recover += cycle_offset;
        dst.powerEvents.push_back(shifted);
    }

    for (const TelemetryRequestSpan &e : seg.requestSpans) {
        if (dst.requestSpans.size() >= kRequestSpanCap) {
            ++dst.droppedRequestSpans;
            continue;
        }
        TelemetryRequestSpan shifted = e;
        shifted.arrival += cycle_offset;
        shifted.start += cycle_offset;
        shifted.finish += cycle_offset;
        dst.requestSpans.push_back(shifted);
    }
    dst.droppedRequestSpans += seg.droppedRequestSpans;
}

// --------------------------------------------------------------------
// Collector
// --------------------------------------------------------------------

/**
 * Per-core hook. The designated system sampler (core 0) additionally
 * records WPQ occupancy and interval NVM read/write bytes. All reads
 * go through const-safe accessors: sampling never perturbs the
 * simulated machine.
 */
class Telemetry::CoreTelemetry final : public EventSink
{
  public:
    CoreTelemetry(const TelemetryConfig &config, unsigned core_index,
                  bool system_sampler)
        : cfg(config), coreIndex(core_index),
          systemSampler(system_sampler)
    {
        // Pairwise merging needs an even bucket capacity >= 2.
        cfg.seriesCap = std::max<std::size_t>(2, cfg.seriesCap) &
                        ~std::size_t{1};
        if (cfg.sampleCycles == 0)
            cfg.sampleCycles = 1;
    }

    void
    bind(Core &core_ref, MemHierarchy &mem_ref)
    {
        core = &core_ref;
        mem = &mem_ref;
        baseCycle = core->cycle();
        nextSample = baseCycle;
        regionStart = baseCycle;
        if (systemSampler) {
            lastWriteBytes = mem->nvm().bytesWritten();
            lastReadBytes = readBytesNow();
        }
        core->attach(this);
    }

    void
    onCycleEnd(Cycle cycle, unsigned committed) override
    {
        CycleClass c;
        if (committed > 0) {
            c = CycleClass::Active;
        } else if (haveReason) {
            c = classOf(pendingReason);
        } else if (core->done()) {
            c = CycleClass::Idle;
        } else if (core->robOccupancy() == 0 &&
                   core->fetchQueueDepth() == 0) {
            c = CycleClass::FetchStarved;
        } else {
            c = CycleClass::Other;
        }
        ++classCycles[static_cast<std::size_t>(c)];
        ++covered;
        lastClass = c;
        haveReason = false;
        if (cycle == nextSample) {
            sampleNow(cycle);
            nextSample += cfg.sampleCycles;
        }
    }

    void
    onIdle(Cycle from, Cycle to) override
    {
        classCycles[static_cast<std::size_t>(lastClass)] += to - from;
        covered += to - from;
        for (; nextSample < to; nextSample += cfg.sampleCycles)
            sampleNow(nextSample);
    }

    bool classifiesCycles() const override { return true; }

    void
    onStructuralStall(StallReason reason) override
    {
        pendingReason = reason;
        haveReason = true;
        if (!haveDrainStart && isDrainReason(reason)) {
            haveDrainStart = true;
            drainStart = core->cycle();
        }
    }

    void
    onRegionBoundaryStart(Cycle cycle, RegionEndCause cause) override
    {
        if (regionEvents.size() < kRegionEventCap) {
            TelemetryRegionEvent e;
            e.core = coreIndex;
            e.start = regionStart;
            e.drainStart = haveDrainStart ? drainStart : cycle;
            e.end = cycle;
            e.cause = cause;
            regionEvents.push_back(e);
        } else {
            ++droppedRegionEvents;
        }
        regionStart = cycle;
        haveDrainStart = false;
    }

    void
    onPowerFail(Cycle cycle, const CheckpointImage &) override
    {
        TelemetryPowerEvent e;
        e.core = coreIndex;
        e.fail = cycle;
        powerEvents.push_back(e);
    }

    void
    onRecover(Cycle cycle, const CheckpointImage &) override
    {
        if (!powerEvents.empty() && !powerEvents.back().recovered) {
            powerEvents.back().recover = cycle;
            powerEvents.back().recovered = true;
        }
    }

    void
    harvestInto(TelemetryResult &out)
    {
        // Flush the residual interval-counter deltas so the series
        // sums equal the end-of-run aggregates (the downsampling
        // invariant) even for writes issued by the final drain.
        if (systemSampler) {
            std::uint64_t wr = mem->nvm().bytesWritten();
            nvmWriteB.push(wr - lastWriteBytes, cfg.seriesCap);
            lastWriteBytes = wr;
            std::uint64_t rd = readBytesNow();
            nvmReadB.push(rd - lastReadBytes, cfg.seriesCap);
            lastReadBytes = rd;
        }

        if (out.stallCycles.size() <= coreIndex)
            out.stallCycles.resize(coreIndex + 1);
        for (unsigned k = 0; k < kCycleClassCount; ++k)
            out.stallCycles[coreIndex][k] = classCycles[k];
        out.coveredCycles = covered;

        int cid = static_cast<int>(coreIndex);
        materialize(out, "rob", cid, robAcc);
        materialize(out, "fetchQ", cid, fetchAcc);
        materialize(out, "readyQ", cid, readyAcc);
        materialize(out, "csq", cid, csqAcc);
        materialize(out, "wb", cid, wbAcc);
        materialize(out, "freePrf", cid, freePrfAcc);
        if (systemSampler) {
            materialize(out, "wpq", -1, wpqAcc);
            materialize(out, "nvmReadBytes", -1, nvmReadB);
            materialize(out, "nvmWriteBytes", -1, nvmWriteB);
        }

        for (TelemetryRegionEvent e : regionEvents) {
            e.start -= baseCycle;
            e.drainStart -= baseCycle;
            e.end -= baseCycle;
            if (out.regionEvents.size() < kRegionEventCap)
                out.regionEvents.push_back(e);
            else
                ++out.droppedRegionEvents;
        }
        out.droppedRegionEvents += droppedRegionEvents;
        for (TelemetryPowerEvent e : powerEvents) {
            e.fail -= baseCycle;
            if (e.recovered)
                e.recover -= baseCycle;
            out.powerEvents.push_back(e);
        }
    }

  private:
    /**
     * Bounded accumulator: buckets of `strideSamples` raw samples;
     * when `cap` buckets fill, adjacent pairs merge and the stride
     * doubles — O(cap) memory for any run length, and bucket sums are
     * preserved exactly across every merge.
     */
    struct Accum
    {
        std::uint64_t strideSamples = 1;
        std::uint64_t lastCount = 0;
        std::vector<std::uint64_t> sums;

        void
        push(std::uint64_t v, std::size_t cap)
        {
            if (sums.empty() || lastCount == strideSamples) {
                if (sums.size() == cap) {
                    // Every bucket is full here (a new bucket is only
                    // opened when the last one filled), so the merge
                    // yields cap/2 full buckets of twice the stride.
                    for (std::size_t i = 0; i < cap / 2; ++i)
                        sums[i] = sums[2 * i] + sums[2 * i + 1];
                    sums.resize(cap / 2);
                    strideSamples *= 2;
                }
                sums.push_back(0);
                lastCount = 0;
            }
            sums.back() += v;
            ++lastCount;
        }
    };

    std::uint64_t
    readBytesNow() const
    {
        return mem->nvm().readCount() * mem->params().l1d.lineBytes;
    }

    void
    sampleNow(Cycle cycle)
    {
        robAcc.push(core->robOccupancy(), cfg.seriesCap);
        fetchAcc.push(core->fetchQueueDepth(), cfg.seriesCap);
        readyAcc.push(core->readyQueueDepth(), cfg.seriesCap);
        csqAcc.push(core->csqRef().size(), cfg.seriesCap);
        wbAcc.push(mem->writeBuffer(coreIndex).queuedEntries(),
                   cfg.seriesCap);
        freePrfAcc.push(core->freeIntRegs() + core->freeFpRegs(),
                        cfg.seriesCap);
        if (systemSampler) {
            const NvmParams &np = mem->nvm().params();
            std::uint64_t occ = 0;
            for (unsigned mc = 0; mc < np.numControllers; ++mc)
                occ += mem->nvm().wpqOccupancy(mc, cycle);
            wpqAcc.push(occ, cfg.seriesCap);
            std::uint64_t wr = mem->nvm().bytesWritten();
            nvmWriteB.push(wr - lastWriteBytes, cfg.seriesCap);
            lastWriteBytes = wr;
            std::uint64_t rd = readBytesNow();
            nvmReadB.push(rd - lastReadBytes, cfg.seriesCap);
            lastReadBytes = rd;
        }
    }

    void
    materialize(TelemetryResult &out, const char *name, int cid,
                const Accum &acc) const
    {
        TelemetrySeries s;
        s.name = name;
        s.core = cid;
        std::size_t n = acc.sums.size();
        s.cycles.reserve(n);
        s.counts.reserve(n);
        s.sums.reserve(n);
        std::uint64_t bucket_cycles =
            acc.strideSamples * cfg.sampleCycles;
        for (std::size_t i = 0; i < n; ++i) {
            s.cycles.push_back(i * bucket_cycles);
            s.counts.push_back(i + 1 < n ? acc.strideSamples
                                         : acc.lastCount);
            s.sums.push_back(acc.sums[i]);
        }
        out.series.push_back(std::move(s));
    }

    TelemetryConfig cfg;
    unsigned coreIndex;
    bool systemSampler;

    Core *core = nullptr;
    MemHierarchy *mem = nullptr;
    Cycle baseCycle = 0;
    Cycle nextSample = 0;

    // Cycle classification.
    std::uint64_t classCycles[kCycleClassCount] = {};
    std::uint64_t covered = 0;
    CycleClass lastClass = CycleClass::Other;
    StallReason pendingReason = StallReason::RobFull;
    bool haveReason = false;

    // Counter series.
    Accum robAcc, fetchAcc, readyAcc, csqAcc, wbAcc, freePrfAcc;
    Accum wpqAcc, nvmReadB, nvmWriteB;
    std::uint64_t lastWriteBytes = 0;
    std::uint64_t lastReadBytes = 0;

    // Timelines (raw cycles; rebased to baseCycle at harvest).
    Cycle regionStart = 0;
    Cycle drainStart = 0;
    bool haveDrainStart = false;
    std::vector<TelemetryRegionEvent> regionEvents;
    std::uint64_t droppedRegionEvents = 0;
    std::vector<TelemetryPowerEvent> powerEvents;
};

Telemetry::Telemetry(const TelemetryConfig &config, unsigned num_cores)
    : cfg(config)
{
    hooks.reserve(num_cores);
    for (unsigned c = 0; c < num_cores; ++c) {
        hooks.push_back(std::make_unique<CoreTelemetry>(
            cfg, c, /*system_sampler=*/c == 0));
    }
}

Telemetry::~Telemetry() = default;

void
Telemetry::attach(Core &core, MemHierarchy &mem)
{
    unsigned c = core.id();
    PPA_ASSERT(c < hooks.size(), "telemetry attach: bad core id");
    hooks[c]->bind(core, mem);
}

TelemetryResult
Telemetry::harvest()
{
    TelemetryResult out;
    out.enabled = true;
    out.sampleCycles = cfg.sampleCycles;
    out.seriesCap = cfg.seriesCap;
    out.stallCycles.resize(hooks.size());
    for (auto &hook : hooks)
        hook->harvestInto(out);
    return out;
}

} // namespace obs
} // namespace ppa
