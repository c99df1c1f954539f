/**
 * @file
 * Capri-style WSP baseline (paper Sections 7.1 and 8).
 *
 * Capri [Jeong et al., HPDC'22] attaches a battery-backed redo buffer
 * (54 KB per core) to each core and drains the data being stored over
 * a *dedicated* FIFO persist path to NVM, bypassing the cache
 * hierarchy. Its compiler partitions the program into recoverable
 * regions (~29 instructions, Section 7.5) sized so their stores never
 * overflow the buffer; each region boundary waits for the buffer to
 * drain. The paper evaluates Capri with a realistic 4 GB/s persist
 * path (its artifact's default of 32 GB/s being "unrealistic").
 *
 * This model reproduces those externally visible properties: a
 * bounded buffer, a bandwidth-limited drain, and region-boundary
 * waits. The area/energy side (the 54 KB capacitor-backed SRAM) is
 * accounted in src/energy.
 */

#ifndef PPA_BASELINES_CAPRI_HH
#define PPA_BASELINES_CAPRI_HH

#include <algorithm>
#include <deque>

#include "common/stats.hh"
#include "common/types.hh"
#include "common/units.hh"

namespace ppa
{

/**
 * The Capri redo buffers and their persist path. The path bandwidth
 * is a chip-level resource shared by all cores (the paper evaluates
 * Capri with a realistic 4 GB/s path); the buffers themselves are
 * per-core 54 KB arrays, approximated here as pooled capacity.
 */
class CapriChannel
{
  public:
    /**
     * @param clock          core clock domain
     * @param path_gbps      shared persist path bandwidth (GB/s)
     * @param buffer_bytes   pooled redo-buffer capacity
     * @param base_latency_ns end-to-end drain latency of one entry
     *        through the non-temporal path to the NVM's ADR domain
     */
    CapriChannel(const ClockDomain &clock, double path_gbps = 4.0,
                 std::uint64_t buffer_bytes = 54 * KiB,
                 double base_latency_ns = 38.0)
        : clockDomain(clock), pathGbps(path_gbps),
          capacityEntries(static_cast<unsigned>(buffer_bytes /
                                                entryBytes)),
          baseLatency(clock.nsToCycles(base_latency_ns))
    {}

    /**
     * A committed store enters the redo buffer.
     * @return false when the buffer is full (the commit must stall).
     */
    bool
    onStoreCommit(Cycle now)
    {
        retire(now);
        if (inflight.size() >= capacityEntries)
            return false;
        // FIFO drain limited by the shared path bandwidth, never
        // faster than the path's end-to-end latency.
        Cycle service = clockDomain.bandwidthCycles(entryBytes, pathGbps);
        Cycle completion = std::max(lastCompletion, now) +
                           std::max<Cycle>(service, 1);
        completion = std::max(completion, now + baseLatency);
        lastCompletion = completion;
        inflight.push_back(completion);
        statEntries.inc();
        return true;
    }

    /** True when every buffered entry has drained to NVM. */
    bool
    empty(Cycle now)
    {
        retire(now);
        return inflight.empty();
    }

    /**
     * First cycle at or after @p now at which an entry drains, i.e.
     * at which empty() or onStoreCommit() can answer differently;
     * neverCycle when nothing is buffered.
     */
    Cycle
    nextDrainCycle(Cycle now) const
    {
        auto it = std::lower_bound(inflight.begin(), inflight.end(), now);
        return it == inflight.end() ? neverCycle : *it;
    }

    std::uint64_t totalEntries() const { return statEntries.value(); }

    /** Redo-buffer entry footprint: 8B data + 8B address/metadata. */
    static constexpr unsigned entryBytes = 16;

  private:
    void
    retire(Cycle now)
    {
        while (!inflight.empty() && inflight.front() <= now)
            inflight.pop_front();
    }

    ClockDomain clockDomain;
    double pathGbps;
    unsigned capacityEntries;
    Cycle baseLatency;
    std::deque<Cycle> inflight;
    Cycle lastCompletion = 0;

    stats::Counter statEntries;
};

} // namespace ppa

#endif // PPA_BASELINES_CAPRI_HH
