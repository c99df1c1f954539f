/**
 * @file
 * Set-associative write-back cache tag model with LRU replacement.
 *
 * The simulator tracks tags and dirty bits only; data values live in
 * the functional memory images (see mem_image.hh). That is sufficient
 * because the evaluation cares about hit/miss timing and writeback
 * traffic, while crash-consistency verification flows value-exact data
 * through the persist path (write buffer -> WPQ -> NVM image).
 */

#ifndef PPA_MEM_CACHE_HH
#define PPA_MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/line_array.hh"
#include "mem/params.hh"

namespace ppa
{

/**
 * Result of a cache access: hit/miss plus any dirty victim evicted by
 * the line fill.
 */
struct CacheAccessResult
{
    bool hit = false;
    /** Line address of a dirty victim that must be written back. */
    std::optional<Addr> dirtyVictim;
};

/**
 * A set-associative write-back, write-allocate cache tag array.
 */
class Cache
{
  public:
    explicit Cache(const CacheParams &params, const char *name = "cache");

    /**
     * Perform an access; on a miss the line is filled (allocated),
     * possibly evicting a dirty victim reported in the result.
     *
     * @param addr  byte address accessed
     * @param is_write mark the line dirty on hit/fill
     */
    CacheAccessResult access(Addr addr, bool is_write);

    /** Probe without side effects. */
    bool contains(Addr addr) const;

    /**
     * Insert a (possibly dirty) line evicted from an upper level;
     * returns a dirty victim if the fill displaced one.
     */
    std::optional<Addr> insertWriteback(Addr line_addr, bool dirty);

    /** Clear a line's dirty bit (after its data has been persisted). */
    void cleanLine(Addr addr);

    /** Invalidate every line, dirty or not (a power failure); O(1). */
    void invalidateAll() { lines.invalidateAll(); }

    /** All currently dirty line addresses (for final drain). */
    std::vector<Addr> dirtyLines() const;

    Cycle hitLatency() const { return params.hitLatency; }
    unsigned lineBytes() const { return params.lineBytes; }
    Addr lineMask() const { return params.lineBytes - 1; }

    /** Align an address down to its containing line. */
    Addr lineAlign(Addr addr) const { return addr & ~Addr{lineMask()}; }

    std::uint64_t hits() const { return statHits.value(); }
    std::uint64_t misses() const { return statMisses.value(); }

    double
    missRatio() const
    {
        std::uint64_t total = hits() + misses();
        return total ? static_cast<double>(misses()) /
                           static_cast<double>(total)
                     : 0.0;
    }

  private:
    /** Tag, dirty and lruStamp mean something only while the line is
     *  valid in its LineArray. */
    struct Line
    {
        Addr tag;
        std::uint64_t lruStamp;
        std::uint32_t epoch;
        bool dirty;
    };
    static_assert(sizeof(Line) == 24);

    std::size_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;
    Line *setBase(std::size_t set_index);
    const Line *setBase(std::size_t set_index) const;
    /** The valid way of @p set holding @p tag, or null. */
    const Line *find(const Line *set, Addr tag) const;
    Line *
    find(Line *set, Addr tag)
    {
        return const_cast<Line *>(std::as_const(*this).find(set, tag));
    }
    /** Fill @p tag into set @p si's first invalid way, else its LRU
     *  way; returns the victim's address when it was dirty. */
    std::optional<Addr> fill(std::size_t si, Addr tag, bool dirty);

    CacheParams params;
    std::size_t numSets;
    unsigned lineShift;   // log2(lineBytes)
    unsigned setShift;    // log2(numSets)
    /** All lines in one contiguous array, @c assoc per set; the
     *  per-thread pool holds a one-core System's L1I, L1D and L2. */
    LineArray<Line, 3> lines;
    std::uint64_t stampCounter = 0;

    stats::Counter statHits;
    stats::Counter statMisses;
};

} // namespace ppa

#endif // PPA_MEM_CACHE_HH
