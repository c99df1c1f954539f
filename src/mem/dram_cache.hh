/**
 * @file
 * Direct-mapped DRAM cache, i.e. the LLC of PMEM's memory mode.
 *
 * In Intel's memory mode, DRAM fronts the persistent memory as a
 * direct-mapped cache managed by the memory controller. The paper's
 * baseline and PPA both run in this mode; the eADR/BBB (app-direct)
 * baseline disables it, which is exactly what makes the ideal PSP
 * design lose to PPA on memory-intensive applications (Figure 10).
 */

#ifndef PPA_MEM_DRAM_CACHE_HH
#define PPA_MEM_DRAM_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/line_array.hh"
#include "mem/params.hh"

namespace ppa
{

/** Direct-mapped tag array covering the DRAM cache. */
class DramCache
{
  public:
    explicit DramCache(const DramCacheParams &params);

    /**
     * Access @p addr; on a miss the line is allocated, and any dirty
     * victim line address is returned for writeback to NVM.
     */
    CacheAccessResult access(Addr addr, bool is_write);

    /** Probe without side effects. */
    bool contains(Addr addr) const;

    /** Clear a resident line's dirty bit (after its data has been
     *  persisted); no-op when the line is absent. */
    void cleanLine(Addr addr);

    /** All dirty line addresses (final drain / eADR-style flush). */
    std::vector<Addr> dirtyLines() const;

    /** Drop all contents (power loss: DRAM is volatile); O(1). */
    void invalidateAll() { lines.invalidateAll(); }

    Cycle hitLatency() const { return params.hitLatency; }
    Addr lineAlign(Addr addr) const
    {
        return addr & ~Addr{params.lineBytes - 1};
    }

    std::uint64_t hits() const { return statHits.value(); }
    std::uint64_t misses() const { return statMisses.value(); }

  private:
    /** Tag and dirty mean something only while the line is valid in
     *  its LineArray. */
    struct Line
    {
        Addr tag;
        std::uint32_t epoch;
        bool dirty;
    };
    static_assert(sizeof(Line) == 16);

    std::size_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    DramCacheParams params;
    std::size_t numSets;
    unsigned lineShift;
    unsigned setShift;
    /** One line per set; a System has one DRAM cache. */
    LineArray<Line, 1> lines;

    stats::Counter statHits;
    stats::Counter statMisses;
};

} // namespace ppa

#endif // PPA_MEM_DRAM_CACHE_HH
