/**
 * @file
 * Per-region statistics (paper Sections 7.3, 7.5).
 *
 * Tracks the size of each dynamically formed region (split into store
 * and non-store instructions, as Figure 13 reports), what caused its
 * boundary, and how many cycles the pipeline stalled at the boundary
 * waiting for the region's stores to persist (Figure 11).
 */

#ifndef PPA_PPA_REGION_STATS_HH
#define PPA_PPA_REGION_STATS_HH

#include <cstdint>

#include "common/stats.hh"

namespace ppa
{

/** Why a region ended. */
enum class RegionEndCause : std::uint8_t
{
    PrfExhausted,  ///< no free physical register at rename (Section 4.2)
    CsqFull,       ///< implicit boundary on CSQ overflow
    SyncPrimitive, ///< atomic/fence treated as a boundary (Section 6)
    EndOfRun,      ///< final drain at program end
};

/**
 * Aggregated dynamic region characteristics for one core.
 */
class RegionStats
{
  public:
    /** Called when an instruction commits inside the current region. */
    void
    onCommit(bool is_store)
    {
        if (is_store)
            ++curStores;
        else
            ++curOthers;
    }

    /** Called for every cycle the pipeline stalls at a boundary; @p n
     *  books a span of identical stalled cycles at once. */
    void onBoundaryStall(std::uint64_t n = 1) { boundaryStallCycles.inc(n); }

    /** Called when the current region's boundary completes. */
    void
    onRegionEnd(RegionEndCause cause)
    {
        regionStoreCount.sample(static_cast<double>(curStores));
        regionOtherCount.sample(static_cast<double>(curOthers));
        curStores = 0;
        curOthers = 0;
        regions.inc();
        switch (cause) {
          case RegionEndCause::PrfExhausted:
            endPrf.inc();
            break;
          case RegionEndCause::CsqFull:
            endCsq.inc();
            break;
          case RegionEndCause::SyncPrimitive:
            endSync.inc();
            break;
          case RegionEndCause::EndOfRun:
            endRun.inc();
            break;
        }
    }

    std::uint64_t regionCount() const { return regions.value(); }
    double avgStoresPerRegion() const { return regionStoreCount.mean(); }
    double avgOthersPerRegion() const { return regionOtherCount.mean(); }
    /** Stores / other instructions summed over the ended regions. */
    double regionStoreSum() const { return regionStoreCount.total(); }
    double regionOtherSum() const { return regionOtherCount.total(); }
    std::uint64_t stallCycles() const
    {
        return boundaryStallCycles.value();
    }
    std::uint64_t endedByPrf() const { return endPrf.value(); }
    std::uint64_t endedByCsq() const { return endCsq.value(); }
    std::uint64_t endedBySync() const { return endSync.value(); }

  private:
    std::uint64_t curStores = 0;
    std::uint64_t curOthers = 0;

    stats::Counter regions;
    stats::Counter boundaryStallCycles;
    stats::Average regionStoreCount;
    stats::Average regionOtherCount;
    stats::Counter endPrf;
    stats::Counter endCsq;
    stats::Counter endSync;
    stats::Counter endRun;
};

} // namespace ppa

#endif // PPA_PPA_REGION_STATS_HH
