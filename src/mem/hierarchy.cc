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
    l2Cache = std::make_unique<Cache>(cfg.l2, "l2");
    if (cfg.l3Enabled)
        l3Cache = std::make_unique<Cache>(cfg.l3, "l3");
    if (cfg.dramCache.enabled && !cfg.dramOnly)
        dramCacheModel = std::make_unique<DramCache>(cfg.dramCache);
    nvmDevice = std::make_unique<Nvm>(cfg.nvm, clock);
    ioWindow = IoBuffer(cfg.ioWindowBase, cfg.ioWindowBytes);
    dramOnlyLatency = clock.nsToCycles(cfg.dramOnlyLatencyNs);
}

Cycle
MemHierarchy::writebackLineToNvm(Addr line_addr, Cycle now)
{
    if (cfg.dramOnly)
        return 0; // volatile system: evictions vanish into DRAM
    auto ticket = nvmDevice->enqueueWrite(line_addr, cfg.l1d.lineBytes,
                                          now);
    persistedImage.copyLineFrom(committedImage, line_addr,
                                cfg.l1d.lineBytes - 1);
    // A full WPQ back-pressures the eviction: the fill that displaced
    // this victim stalls until the WPQ has room (this is what makes
    // the memory-mode baseline itself bandwidth-bound on PMEM).
    return ticket.acceptCycle - now;
}

Cycle
MemHierarchy::cascadeVictim(unsigned level, Addr victim_line, Cycle now)
{
    // level 0: victim leaving L1D -> L2; 1: leaving L2 -> L3/DRAM$;
    // 2: leaving L3 -> DRAM$; 3: leaving DRAM$ -> NVM.
    switch (level) {
      case 0: {
        auto v = l2Cache->insertWriteback(victim_line, true);
        if (v)
            return cascadeVictim(1, *v, now);
        return 0;
      }
      case 1: {
        if (l3Cache) {
            auto v = l3Cache->insertWriteback(victim_line, true);
            if (v)
                return cascadeVictim(2, *v, now);
            return 0;
        }
        if (dramCacheModel) {
            auto r = dramCacheModel->access(victim_line, true);
            if (r.dirtyVictim)
                return writebackLineToNvm(*r.dirtyVictim, now);
            return 0;
        }
        return writebackLineToNvm(victim_line, now);
      }
      case 2: {
        if (dramCacheModel) {
            auto r = dramCacheModel->access(victim_line, true);
            if (r.dirtyVictim)
                return writebackLineToNvm(*r.dirtyVictim, now);
            return 0;
        }
        return writebackLineToNvm(victim_line, now);
      }
      default:
        return writebackLineToNvm(victim_line, now);
    }
}

Cycle
MemHierarchy::load(unsigned core_id, Addr addr, Cycle now)
{
    PPA_ASSERT(core_id < numCores, "bad core id ", core_id);
    Cache &l1 = *l1dCaches[core_id];
    Cycle lat = l1.hitLatency();

    auto r1 = l1.access(addr, false);
    if (r1.hit)
        return now + lat;
    if (r1.dirtyVictim)
        lat += cascadeVictim(0, *r1.dirtyVictim, now);

    lat += l2Cache->hitLatency();
    auto r2 = l2Cache->access(addr, false);
    if (r2.hit)
        return now + lat;
    if (r2.dirtyVictim)
        lat += cascadeVictim(1, *r2.dirtyVictim, now);

    if (l3Cache) {
        lat += l3Cache->hitLatency();
        auto r3 = l3Cache->access(addr, false);
        if (r3.hit)
            return now + lat;
        if (r3.dirtyVictim)
            lat += cascadeVictim(2, *r3.dirtyVictim, now);
    }

    if (cfg.dramOnly)
        return now + lat + dramOnlyLatency;

    if (dramCacheModel) {
        lat += dramCacheModel->hitLatency();
        auto rd = dramCacheModel->access(addr, false);
        if (rd.hit)
            return now + lat;
        if (rd.dirtyVictim)
            lat += writebackLineToNvm(*rd.dirtyVictim, now);
    }

    return nvmDevice->readLatency(now) + lat;
}

Cycle
MemHierarchy::instFetch(unsigned core_id, Addr addr, Cycle now)
{
    PPA_ASSERT(core_id < numCores, "bad core id ", core_id);
    Cache &l1i = *l1iCaches[core_id];
    Cycle lat = l1i.hitLatency();

    auto r1 = l1i.access(addr, false);
    if (r1.hit)
        return now + lat;
    // Code is read-only: no dirty victims from the L1I.

    lat += l2Cache->hitLatency();
    auto r2 = l2Cache->access(addr, false);
    if (r2.hit)
        return now + lat;
    if (r2.dirtyVictim)
        lat += cascadeVictim(1, *r2.dirtyVictim, now);

    if (l3Cache) {
        lat += l3Cache->hitLatency();
        auto r3 = l3Cache->access(addr, false);
        if (r3.hit)
            return now + lat;
        if (r3.dirtyVictim)
            lat += cascadeVictim(2, *r3.dirtyVictim, now);
    }

    if (cfg.dramOnly)
        return now + lat + dramOnlyLatency;

    if (dramCacheModel) {
        lat += dramCacheModel->hitLatency();
        auto rd = dramCacheModel->access(addr, false);
        if (rd.hit)
            return now + lat;
        if (rd.dirtyVictim)
            lat += writebackLineToNvm(*rd.dirtyVictim, now);
    }
    return nvmDevice->readLatency(now) + lat;
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
        lat += l2Cache->hitLatency();
        auto r2 = l2Cache->access(addr, false);
        if (!r2.hit) {
            if (r2.dirtyVictim)
                lat += cascadeVictim(1, *r2.dirtyVictim, now);
            if (l3Cache) {
                lat += l3Cache->hitLatency();
                auto r3 = l3Cache->access(addr, false);
                if (!r3.hit && r3.dirtyVictim)
                    lat += cascadeVictim(2, *r3.dirtyVictim, now);
                if (r3.hit)
                    goto filled;
            }
            if (cfg.dramOnly) {
                lat += dramOnlyLatency;
            } else if (dramCacheModel) {
                lat += dramCacheModel->hitLatency();
                auto rd = dramCacheModel->access(addr, false);
                if (!rd.hit) {
                    if (rd.dirtyVictim) {
                        lat += writebackLineToNvm(*rd.dirtyVictim,
                                                  now);
                    }
                    lat += nvmDevice->readLatency(now) - now;
                }
            } else {
                lat += nvmDevice->readLatency(now) - now;
            }
        }
    }
  filled:
    committedImage.write(addr, value);
    if (persist && dramCacheModel) {
        // Write-through of the async persist keeps the DRAM cache copy
        // clean relative to NVM.
        dramCacheModel->updateIfPresent(addr);
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
    l2Cache->cleanLine(line);
    if (l3Cache)
        l3Cache->cleanLine(line);
    if (dramCacheModel)
        dramCacheModel->cleanLine(line);
    if (cfg.dramOnly)
        return now + 1;
    auto ticket = nvmDevice->enqueueWrite(line, cfg.l1d.lineBytes, now);
    persistedImage.copyLineFrom(committedImage, line,
                                cfg.l1d.lineBytes - 1);
    return ticket.ackCycle;
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
MemHierarchy::outstandingPersists(unsigned core_id, Cycle now)
{
    return writeBuffers[core_id]->outstandingStores(now);
}

Cycle
MemHierarchy::drainAll(Cycle now)
{
    Cycle t = now;
    if (!cfg.dramOnly) {
        for (auto &wb : writeBuffers)
            t = std::max(t, wb->drainAll(t, *nvmDevice, persistedImage));
    }

    // Orderly shutdown: flush remaining dirty lines down to NVM.
    for (auto &l1 : l1dCaches) {
        for (Addr line : l1->dirtyLines()) {
            writebackLineToNvm(line, t);
            l1->cleanLine(line);
        }
    }
    for (Addr line : l2Cache->dirtyLines()) {
        writebackLineToNvm(line, t);
        l2Cache->cleanLine(line);
    }
    if (l3Cache) {
        for (Addr line : l3Cache->dirtyLines()) {
            writebackLineToNvm(line, t);
            l3Cache->cleanLine(line);
        }
    }
    if (dramCacheModel) {
        for (Addr line : dramCacheModel->dirtyLines()) {
            writebackLineToNvm(line, t);
            dramCacheModel->cleanLine(line);
        }
    }
    return std::max(t, nvmDevice->drainAllBy());
}

void
MemHierarchy::powerFail()
{
    for (auto &l1 : l1iCaches)
        l1->invalidateAll();
    for (auto &l1 : l1dCaches)
        l1->invalidateAll();
    l2Cache->invalidateAll();
    if (l3Cache)
        l3Cache->invalidateAll();
    if (dramCacheModel)
        dramCacheModel->invalidateAll();
    // Un-issued WB entries are volatile and vanish; issued entries are
    // in the WPQ (ADR domain) and were already applied to the NVM
    // image.
    for (auto &wb : writeBuffers)
        wb->reset();
}

Cycle
MemHierarchy::atomicPersistWrite(unsigned core_id, Addr addr, Word value,
                                 Cycle now)
{
    (void)core_id;
    committedImage.write(addr, value);
    if (cfg.dramOnly)
        return now + dramOnlyLatency;
    Addr line = addr & ~Addr{cfg.l1d.lineBytes - 1};
    auto ticket = nvmDevice->enqueueWrite(line, cfg.l1d.lineBytes, now);
    persistedImage.write(addr, value);
    if (dramCacheModel)
        dramCacheModel->updateIfPresent(addr);
    return ticket.ackCycle;
}

void
MemHierarchy::recoveryWrite(Addr addr, Word value)
{
    persistedImage.write(addr, value);
    committedImage.write(addr, value);
}

void
MemHierarchy::initializeWord(Addr addr, Word value)
{
    persistedImage.write(addr, value);
    committedImage.write(addr, value);
}

} // namespace ppa
