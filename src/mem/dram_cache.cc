#include "mem/dram_cache.hh"

#include <bit>

#include "common/logging.hh"

namespace ppa
{

namespace
{

std::size_t
setCount(const DramCacheParams &p)
{
    PPA_ASSERT(std::has_single_bit(std::uint64_t{p.lineBytes}),
               "DRAM cache line size must be a power of two");
    std::size_t sets = p.sizeBytes / p.lineBytes;
    PPA_ASSERT(std::has_single_bit(std::uint64_t{sets}),
               "DRAM cache set count must be a power of two");
    return sets;
}

} // namespace

DramCache::DramCache(const DramCacheParams &p)
    : params(p), numSets(setCount(p)),
      lineShift(static_cast<unsigned>(
          std::countr_zero(std::uint64_t{p.lineBytes}))),
      setShift(static_cast<unsigned>(
          std::countr_zero(std::uint64_t{numSets}))),
      lines(numSets)
{
}

std::size_t
DramCache::setIndex(Addr addr) const
{
    return (addr >> lineShift) & (numSets - 1);
}

Addr
DramCache::tagOf(Addr addr) const
{
    return (addr >> lineShift) >> setShift;
}

CacheAccessResult
DramCache::access(Addr addr, bool is_write)
{
    Line &line = lines[setIndex(addr)];
    Addr tag = tagOf(addr);
    bool valid = lines.valid(line);

    if (valid && line.tag == tag) {
        if (is_write)
            line.dirty = true;
        statHits.inc();
        return {true, std::nullopt};
    }

    if (!valid && params.warmStart) {
        // First touch of this set: the fast-forward phase already
        // brought the line in (see DramCacheParams::warmStart).
        lines.validate(line);
        line.tag = tag;
        line.dirty = is_write;
        statHits.inc();
        return {true, std::nullopt};
    }

    statMisses.inc();
    std::optional<Addr> dirty_victim;
    if (valid && line.dirty) {
        dirty_victim = ((line.tag << setShift) | setIndex(addr))
                       << lineShift;
    }
    lines.validate(line);
    line.tag = tag;
    line.dirty = is_write;
    return {false, dirty_victim};
}

bool
DramCache::contains(Addr addr) const
{
    const Line &line = lines[setIndex(addr)];
    return lines.valid(line) && line.tag == tagOf(addr);
}

void
DramCache::cleanLine(Addr addr)
{
    Line &line = lines[setIndex(addr)];
    if (lines.valid(line) && line.tag == tagOf(addr))
        line.dirty = false;
}

std::vector<Addr>
DramCache::dirtyLines() const
{
    std::vector<Addr> out;
    for (std::size_t si = 0; si < numSets; ++si) {
        const Line &line = lines[si];
        if (lines.valid(line) && line.dirty)
            out.push_back(((line.tag << setShift) | si) << lineShift);
    }
    return out;
}

} // namespace ppa
