#include "mem/hierarchy.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ppa
{

MemHierarchy::MemHierarchy(const MemSystemParams &params,
                           unsigned num_cores,
                           const ClockDomain &clock_domain)
    : cfg(params), numCores(num_cores), clock(clock_domain)
{
    for (unsigned c = 0; c < numCores; ++c) {
        l1iCaches.push_back(std::make_unique<Cache>(cfg.l1i, "l1i"));
        l1dCaches.push_back(std::make_unique<Cache>(cfg.l1d, "l1d"));
        writeBuffers.push_back(std::make_unique<WriteBuffer>(
            cfg.writeBufferEntries, cfg.l1d.lineBytes,
            cfg.wbCoalesceWindow));
    }
    sharedCaches.push_back(std::make_unique<Cache>(cfg.l2, "l2"));
    if (cfg.l3Enabled)
        sharedCaches.push_back(std::make_unique<Cache>(cfg.l3, "l3"));
    if (cfg.dramCache.enabled && !cfg.dramOnly)
        dramCacheModel = std::make_unique<DramCache>(cfg.dramCache);
    nvmDevice = std::make_unique<Nvm>(cfg.nvm, clock);
    ioWindow = IoBuffer(cfg.ioWindowBase, cfg.ioWindowBytes);
    dramOnlyLatency = clock.nsToCycles(cfg.dramOnlyLatencyNs);
}

NvmWriteTicket
MemHierarchy::writebackLineToNvm(Addr line_addr, Cycle now)
{
    if (cfg.dramOnly)
        return {now, now}; // volatile system: evictions vanish into DRAM
    auto ticket = nvmDevice->enqueueWrite(line_addr, cfg.l1d.lineBytes,
                                          now);
    persistedImage.copyLineFrom(committedImage, line_addr,
                                cfg.l1d.lineBytes - 1);
    return ticket;
}

Cycle
MemHierarchy::cascadeVictim(std::size_t level, Addr victim_line,
                            Cycle now)
{
    // The next cache level, else the DRAM cache, else NVM.
    if (level < sharedCaches.size()) {
        auto v = sharedCaches[level]->insertWriteback(victim_line, true);
        return v ? cascadeVictim(level + 1, *v, now) : 0;
    }
    if (dramCacheModel) {
        auto r = dramCacheModel->access(victim_line, true);
        if (!r.dirtyVictim)
            return 0;
        victim_line = *r.dirtyVictim;
    }
    // A full WPQ back-pressures the eviction: the fill that displaced
    // this victim stalls until the WPQ has room (this is what makes
    // the memory-mode baseline itself bandwidth-bound on PMEM).
    return writebackLineToNvm(victim_line, now).acceptCycle - now;
}

Cycle
MemHierarchy::fillBelowL1(Addr addr, Cycle now)
{
    Cycle lat = 0;
    for (std::size_t i = 0; i < sharedCaches.size(); ++i) {
        Cache &level = *sharedCaches[i];
        lat += level.hitLatency();
        auto r = level.access(addr, false);
        if (r.hit)
            return lat;
        if (r.dirtyVictim)
            lat += cascadeVictim(i + 1, *r.dirtyVictim, now);
    }

    if (cfg.dramOnly)
        return lat + dramOnlyLatency;

    if (dramCacheModel) {
        lat += dramCacheModel->hitLatency();
        auto r = dramCacheModel->access(addr, false);
        if (r.hit)
            return lat;
        if (r.dirtyVictim) {
            lat += writebackLineToNvm(*r.dirtyVictim, now).acceptCycle -
                   now;
        }
    }
    return lat + (nvmDevice->readLatency(now) - now);
}

Cycle
MemHierarchy::load(unsigned core_id, Addr addr, Cycle now)
{
    PPA_ASSERT(core_id < numCores, "bad core id ", core_id);
    Cache &l1 = *l1dCaches[core_id];
    Cycle lat = l1.hitLatency();

    auto r1 = l1.access(addr, false);
    if (!r1.hit) {
        if (r1.dirtyVictim)
            lat += cascadeVictim(0, *r1.dirtyVictim, now);
        lat += fillBelowL1(addr, now);
    }
    return now + lat;
}

Cycle
MemHierarchy::instFetch(unsigned core_id, Addr addr, Cycle now)
{
    PPA_ASSERT(core_id < numCores, "bad core id ", core_id);
    Cache &l1i = *l1iCaches[core_id];
    Cycle lat = l1i.hitLatency();

    // Code is read-only: no dirty victims from the L1I.
    if (!l1i.access(addr, false).hit)
        lat += fillBelowL1(addr, now);
    return now + lat;
}

bool
MemHierarchy::instHitsL1I(unsigned core_id, Addr addr) const
{
    return l1iCaches[core_id]->contains(addr);
}

StoreMergeResult
MemHierarchy::storeMerge(unsigned core_id, Addr addr, Word value,
                         Cycle now, bool persist)
{
    PPA_ASSERT(core_id < numCores, "bad core id ", core_id);
    Cache &l1 = *l1dCaches[core_id];

    if (persist) {
        // The persist path must have room before the store merges,
        // otherwise its persist op would be lost.
        if (!writeBuffers[core_id]->addStore(addr, value, now))
            return {false, 0};
    }

    // Write-allocate: a miss fills through the hierarchy first.
    Cycle lat = l1.hitLatency();
    // Under PPA the line is left clean: its data is persisted via the
    // WB path, so a later eviction must not write back again.
    auto r1 = l1.access(addr, !persist);
    if (!r1.hit) {
        if (r1.dirtyVictim)
            lat += cascadeVictim(0, *r1.dirtyVictim, now);
        lat += fillBelowL1(addr, now);
    }
    committedImage.write(addr, value);
    if (persist && dramCacheModel) {
        // Write-through of the async persist keeps the DRAM cache copy
        // clean relative to NVM.
        dramCacheModel->cleanLine(addr);
    }
    return {true, now + lat};
}

Cycle
MemHierarchy::clwbLine(unsigned core_id, Addr addr, Cycle now)
{
    // clwb forces the dirty line (wherever it is) back to NVM; under
    // the ReplayCache baseline this happens synchronously per store.
    Addr line = l1dCaches[core_id]->lineAlign(addr);
    l1dCaches[core_id]->cleanLine(line);
    forEachLevelBelowL1([line](auto &level) { level.cleanLine(line); });
    if (cfg.dramOnly)
        return now + 1;
    return writebackLineToNvm(line, now).ackCycle;
}

void
MemHierarchy::tick(Cycle now)
{
    if (cfg.dramOnly)
        return;
    for (auto &wb : writeBuffers)
        wb->tick(now, *nvmDevice, persistedImage);
}

Cycle
MemHierarchy::nextTickEvent(Cycle now) const
{
    Cycle next = neverCycle;
    if (cfg.dramOnly)
        return next;
    for (const auto &wb : writeBuffers)
        next = std::min(next, wb->nextIssueCycle(now, *nvmDevice));
    return next;
}

unsigned
MemHierarchy::outstandingPersists(unsigned core_id) const
{
    return writeBuffers[core_id]->outstandingStores();
}

Cycle
MemHierarchy::drainAll(Cycle now)
{
    Cycle t = now;
    if (!cfg.dramOnly) {
        for (auto &wb : writeBuffers)
            t = std::max(t, wb->drainAll(t, *nvmDevice, persistedImage));
    }

    // Orderly shutdown: flush remaining dirty lines down to NVM, from
    // the L1Ds down.
    auto flush = [this, t](auto &level) {
        for (Addr line : level.dirtyLines()) {
            writebackLineToNvm(line, t);
            level.cleanLine(line);
        }
    };
    for (auto &l1 : l1dCaches)
        flush(*l1);
    forEachLevelBelowL1(flush);
    return std::max(t, nvmDevice->drainAllBy());
}

void
MemHierarchy::powerFail()
{
    for (auto &l1 : l1iCaches)
        l1->invalidateAll();
    for (auto &l1 : l1dCaches)
        l1->invalidateAll();
    forEachLevelBelowL1([](auto &level) { level.invalidateAll(); });
    // Un-issued WB entries are volatile and vanish; issued entries are
    // in the WPQ (ADR domain) and were already applied to the NVM
    // image.
    for (auto &wb : writeBuffers)
        wb->reset();
}

Cycle
MemHierarchy::atomicPersistWrite(Addr addr, Word value, Cycle now)
{
    committedImage.write(addr, value);
    if (cfg.dramOnly)
        return now + dramOnlyLatency;
    Addr line = addr & ~Addr{cfg.l1d.lineBytes - 1};
    auto ticket = nvmDevice->enqueueWrite(line, cfg.l1d.lineBytes, now);
    persistedImage.write(addr, value);
    if (dramCacheModel)
        dramCacheModel->cleanLine(addr);
    return ticket.ackCycle;
}

void
MemHierarchy::recoveryWrite(Addr addr, Word value)
{
    persistedImage.write(addr, value);
    committedImage.write(addr, value);
}

} // namespace ppa
