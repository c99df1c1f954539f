#include "mem/write_buffer.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace ppa
{

WriteBuffer::WriteBuffer(unsigned num_entries, unsigned line_bytes,
                         unsigned coalesce_window)
    : capacity(num_entries), lineBytes(line_bytes),
      coalesceWindow(coalesce_window)
{
    PPA_ASSERT(capacity > 0, "write buffer needs at least one entry");
    PPA_ASSERT(lineBytes / 8 <= maxLineWords,
               "line size exceeds inline word storage");
}

bool
WriteBuffer::addStore(Addr addr, Word value, Cycle now)
{
    Addr line = addr & ~Addr{lineBytes - 1};

    // Persist coalescing: merge into a waiting entry for the same
    // line. Correct within a region because the barrier drains the WB
    // before the next region's stores arrive (Section 4.3).
    unsigned word = static_cast<unsigned>((addr - line) >> 3);

    for (auto &e : entries) {
        if (e.lineAddr == line) {
            e.words[word] = value;
            e.wordMask |= 1u << word;
            ++e.storeCount;
            statCoalesced.inc();
            if (sinks) {
                for (obs::EventSink *s : *sinks)
                    s->onPersistEnqueue(addr, value, true);
            }
            return true;
        }
    }

    if (entries.size() >= capacity)
        return false;

    Entry e;
    e.lineAddr = line;
    e.words[word] = value;
    e.wordMask = 1u << word;
    e.storeCount = 1;
    e.bornCycle = now;
    entries.push_back(e);
    if (sinks) {
        for (obs::EventSink *s : *sinks)
            s->onPersistEnqueue(addr, value, false);
    }
    return true;
}

void
WriteBuffer::tick(Cycle now, Nvm &nvm, MemImage &nvm_image)
{
    // Issue the oldest entry per tick (one WB->WPQ port).
    // Entries linger for a write-combining window so that a burst of
    // same-line stores coalesces into one persist operation — but
    // only a handful of lines stay open: older entries stream out
    // *during* the region (the paper's asynchronous writeback), so a
    // region boundary never faces a burst of deferred writebacks.
    if (entries.empty())
        return;
    const Entry &e = entries.front();
    if (!pressured() && now < e.bornCycle + coalesceWindow)
        return; // still combining; younger entries are newer yet
    if (!nvm.writeAcceptable(e.lineAddr, now)) {
        // WPQ full right now; keep the entry coalescable and try
        // again next cycle rather than committing to a future slot (a
        // younger same-line store may still merge).
        return;
    }
    nvm.enqueueWrite(e.lineAddr, lineBytes, now);
    statOps.inc();
    // Once in the WPQ the write is inside the persistence (ADR)
    // domain: apply the word data to the persistent image now.
    for (std::uint32_t m = e.wordMask; m != 0; m &= m - 1) {
        unsigned w = static_cast<unsigned>(std::countr_zero(m));
        nvm_image.write(e.lineAddr + Addr{w} * 8, e.words[w]);
    }
    if (sinks) {
        for (obs::EventSink *s : *sinks)
            s->onPersistIssue(e.lineAddr, e.storeCount);
    }
    // Retire the entry on WPQ acceptance (ADR: accepted ==
    // persistent).
    entries.pop_front();
}

Cycle
WriteBuffer::nextIssueCycle(Cycle now, const Nvm &nvm) const
{
    if (entries.empty())
        return neverCycle;
    const Entry &e = entries.front();
    Cycle ready =
        pressured() ? now : std::max(now, e.bornCycle + coalesceWindow);
    return std::max(ready, nvm.slotFreeCycle(e.lineAddr, now));
}

unsigned
WriteBuffer::outstandingStores() const
{
    unsigned n = 0;
    for (const auto &e : entries)
        n += e.storeCount;
    return n;
}

Cycle
WriteBuffer::drainAll(Cycle now, Nvm &nvm, MemImage &nvm_image)
{
    // Ticks before nextIssueCycle() change nothing: jump over them.
    Cycle t = now;
    while (!entries.empty()) {
        t = nextIssueCycle(t, nvm);
        tick(t, nvm, nvm_image);
        ++t;
    }
    return t;
}

void
WriteBuffer::reset()
{
    entries.clear();
    draining = false;
    statCoalesced.reset();
    statOps.reset();
}

} // namespace ppa
