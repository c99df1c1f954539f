#include "mem/cache.hh"

#include <bit>

#include "common/logging.hh"

namespace ppa
{

Cache::Cache(const CacheParams &p, const char *name)
    : params(p), cacheName(name)
{
    PPA_ASSERT(std::has_single_bit(std::uint64_t{params.lineBytes}),
               "line size must be a power of two");
    PPA_ASSERT(params.assoc > 0, "associativity must be positive");
    numSets = params.sizeBytes / (params.lineBytes * params.assoc);
    PPA_ASSERT(numSets > 0, cacheName, ": size too small");
    PPA_ASSERT(std::has_single_bit(std::uint64_t{numSets}),
               cacheName, ": set count must be a power of two");
    lineShift = static_cast<unsigned>(
        std::countr_zero(std::uint64_t{params.lineBytes}));
    setShift = static_cast<unsigned>(
        std::countr_zero(std::uint64_t{numSets}));
    lines.assign(numSets * params.assoc, Line{});
}

std::size_t
Cache::setIndex(Addr addr) const
{
    return (addr >> lineShift) & (numSets - 1);
}

Addr
Cache::tagOf(Addr addr) const
{
    return (addr >> lineShift) >> setShift;
}

Cache::Line *
Cache::setBase(std::size_t set_index)
{
    return &lines[set_index * params.assoc];
}

const Cache::Line *
Cache::setBase(std::size_t set_index) const
{
    return &lines[set_index * params.assoc];
}

CacheAccessResult
Cache::access(Addr addr, bool is_write)
{
    std::size_t si = setIndex(addr);
    Line *set = setBase(si);
    Addr tag = tagOf(addr);

    for (unsigned w = 0; w < params.assoc; ++w) {
        Line &line = set[w];
        if (line.valid && line.tag == tag) {
            line.lruStamp = ++stampCounter;
            if (is_write)
                line.dirty = true;
            statHits.inc();
            return {true, std::nullopt};
        }
    }

    statMisses.inc();

    // Fill: choose the LRU way (preferring invalid ways).
    Line *victim = &set[0];
    for (unsigned w = 0; w < params.assoc; ++w) {
        Line &line = set[w];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.lruStamp < victim->lruStamp)
            victim = &line;
    }

    std::optional<Addr> dirty_victim;
    if (victim->valid && victim->dirty)
        dirty_victim = ((victim->tag << setShift) | si) << lineShift;

    victim->tag = tag;
    victim->valid = true;
    victim->dirty = is_write;
    victim->lruStamp = ++stampCounter;
    return {false, dirty_victim};
}

bool
Cache::contains(Addr addr) const
{
    const Line *set = setBase(setIndex(addr));
    Addr tag = tagOf(addr);
    for (unsigned w = 0; w < params.assoc; ++w) {
        if (set[w].valid && set[w].tag == tag)
            return true;
    }
    return false;
}

std::optional<Addr>
Cache::insertWriteback(Addr line_addr, bool dirty)
{
    std::size_t si = setIndex(line_addr);
    Line *set = setBase(si);
    Addr tag = tagOf(line_addr);

    for (unsigned w = 0; w < params.assoc; ++w) {
        Line &line = set[w];
        if (line.valid && line.tag == tag) {
            line.dirty = line.dirty || dirty;
            line.lruStamp = ++stampCounter;
            return std::nullopt;
        }
    }

    Line *victim = &set[0];
    for (unsigned w = 0; w < params.assoc; ++w) {
        Line &line = set[w];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.lruStamp < victim->lruStamp)
            victim = &line;
    }

    std::optional<Addr> dirty_victim;
    if (victim->valid && victim->dirty)
        dirty_victim = ((victim->tag << setShift) | si) << lineShift;

    victim->tag = tag;
    victim->valid = true;
    victim->dirty = dirty;
    victim->lruStamp = ++stampCounter;
    return dirty_victim;
}

void
Cache::cleanLine(Addr addr)
{
    Line *set = setBase(setIndex(addr));
    Addr tag = tagOf(addr);
    for (unsigned w = 0; w < params.assoc; ++w) {
        if (set[w].valid && set[w].tag == tag) {
            set[w].dirty = false;
            return;
        }
    }
}

void
Cache::invalidateAll()
{
    for (Line &line : lines) {
        line.valid = false;
        line.dirty = false;
    }
}

std::vector<Addr>
Cache::dirtyLines() const
{
    std::vector<Addr> dirty;
    for (std::size_t si = 0; si < numSets; ++si) {
        const Line *set = setBase(si);
        for (unsigned w = 0; w < params.assoc; ++w) {
            const Line &line = set[w];
            if (line.valid && line.dirty) {
                dirty.push_back(((line.tag << setShift) | si)
                                << lineShift);
            }
        }
    }
    return dirty;
}

} // namespace ppa
