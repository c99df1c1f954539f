#include "mem/cache.hh"

#include <bit>

#include "common/logging.hh"

namespace ppa
{

namespace
{

std::size_t
setCount(const CacheParams &p, const char *name)
{
    PPA_ASSERT(std::has_single_bit(std::uint64_t{p.lineBytes}),
               "line size must be a power of two");
    PPA_ASSERT(p.assoc > 0, "associativity must be positive");
    std::size_t sets = p.sizeBytes / (p.lineBytes * p.assoc);
    PPA_ASSERT(sets > 0, name, ": size too small");
    PPA_ASSERT(std::has_single_bit(std::uint64_t{sets}),
               name, ": set count must be a power of two");
    return sets;
}

} // namespace

Cache::Cache(const CacheParams &p, const char *name)
    : params(p), numSets(setCount(p, name)),
      lineShift(static_cast<unsigned>(
          std::countr_zero(std::uint64_t{p.lineBytes}))),
      setShift(static_cast<unsigned>(
          std::countr_zero(std::uint64_t{numSets}))),
      lines(numSets * p.assoc)
{
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

const Cache::Line *
Cache::find(const Line *set, Addr tag) const
{
    for (unsigned w = 0; w < params.assoc; ++w) {
        if (lines.valid(set[w]) && set[w].tag == tag)
            return &set[w];
    }
    return nullptr;
}

std::optional<Addr>
Cache::fill(std::size_t si, Addr tag, bool dirty)
{
    Line *set = setBase(si);
    Line *victim = &set[0];
    for (unsigned w = 0; w < params.assoc; ++w) {
        Line &line = set[w];
        if (!lines.valid(line)) {
            victim = &line;
            break;
        }
        if (line.lruStamp < victim->lruStamp)
            victim = &line;
    }

    std::optional<Addr> dirty_victim;
    if (lines.valid(*victim) && victim->dirty)
        dirty_victim = ((victim->tag << setShift) | si) << lineShift;

    lines.validate(*victim);
    victim->tag = tag;
    victim->dirty = dirty;
    victim->lruStamp = ++stampCounter;
    return dirty_victim;
}

CacheAccessResult
Cache::access(Addr addr, bool is_write)
{
    std::size_t si = setIndex(addr);
    Addr tag = tagOf(addr);
    if (Line *line = find(setBase(si), tag)) {
        line->lruStamp = ++stampCounter;
        if (is_write)
            line->dirty = true;
        statHits.inc();
        return {true, std::nullopt};
    }
    statMisses.inc();
    return {false, fill(si, tag, is_write)};
}

bool
Cache::contains(Addr addr) const
{
    return find(setBase(setIndex(addr)), tagOf(addr)) != nullptr;
}

std::optional<Addr>
Cache::insertWriteback(Addr line_addr, bool dirty)
{
    std::size_t si = setIndex(line_addr);
    Addr tag = tagOf(line_addr);
    if (Line *line = find(setBase(si), tag)) {
        line->dirty = line->dirty || dirty;
        line->lruStamp = ++stampCounter;
        return std::nullopt;
    }
    return fill(si, tag, dirty);
}

void
Cache::cleanLine(Addr addr)
{
    if (Line *line = find(setBase(setIndex(addr)), tagOf(addr)))
        line->dirty = false;
}

std::vector<Addr>
Cache::dirtyLines() const
{
    std::vector<Addr> dirty;
    for (std::size_t si = 0; si < numSets; ++si) {
        const Line *set = setBase(si);
        for (unsigned w = 0; w < params.assoc; ++w) {
            const Line &line = set[w];
            if (lines.valid(line) && line.dirty) {
                dirty.push_back(((line.tag << setShift) | si)
                                << lineShift);
            }
        }
    }
    return dirty;
}

} // namespace ppa
