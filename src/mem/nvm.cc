#include "mem/nvm.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace ppa
{

Nvm::Nvm(const NvmParams &params, const ClockDomain &clock_domain)
    : nvmParams(params), clock(clock_domain)
{
    PPA_ASSERT(std::has_single_bit(std::uint64_t{params.numControllers}),
               "controller count must be a power of two");
    controllers.resize(params.numControllers);
    readLatencyCycles = clock.nsToCycles(params.readNs);
    writeLatencyCycles = clock.nsToCycles(params.writeNs);
}

unsigned
Nvm::controllerOf(Addr line_addr) const
{
    return static_cast<unsigned>((line_addr >> 6) &
                                 (nvmParams.numControllers - 1));
}

Cycle
Nvm::writeServiceCycles(unsigned bytes) const
{
    // Bandwidth is shared across controllers in the empirical Optane
    // measurements the paper cites, so each controller gets an equal
    // share of the sustained write bandwidth.
    double bw = nvmParams.writeBwGBps /
                static_cast<double>(nvmParams.numControllers);
    Cycle c = clock.bandwidthCycles(bytes, bw);
    return c > 0 ? c : 1;
}

void
Nvm::retire(Controller &mc, Cycle now)
{
    while (!mc.inflight.empty() && mc.inflight.front() <= now)
        mc.inflight.pop_front();
}

bool
Nvm::writeAcceptable(Addr line_addr, Cycle now)
{
    Controller &mc = controllers[controllerOf(line_addr)];
    retire(mc, now);
    return mc.inflight.size() < nvmParams.wpqEntries;
}

Cycle
Nvm::slotFreeCycle(Addr line_addr, Cycle now) const
{
    // In-flight completions are FIFO-ordered, so a slot frees when the
    // entry wpqEntries places from the back completes.
    const Controller &mc = controllers[controllerOf(line_addr)];
    if (mc.inflight.size() < nvmParams.wpqEntries)
        return now;
    return std::max(now,
                    mc.inflight[mc.inflight.size() - nvmParams.wpqEntries]);
}

NvmWriteTicket
Nvm::enqueueWrite(Addr line_addr, unsigned bytes, Cycle now)
{
    Controller &mc = controllers[controllerOf(line_addr)];
    retire(mc, now);

    Cycle accept = now;
    if (mc.inflight.size() >= nvmParams.wpqEntries) {
        // The WPQ is full: the write is accepted when the oldest entry
        // that must leave to make room completes.
        std::size_t idx = mc.inflight.size() - nvmParams.wpqEntries;
        accept = std::max(accept, mc.inflight[idx]);
        statWpqStall.inc(accept - now);
    }

    // FIFO service: drain completes after the previous entry, limited
    // by sustained write bandwidth, and never faster than the device
    // write latency from acceptance.
    Cycle completion = std::max(mc.lastCompletion, accept) +
                       writeServiceCycles(bytes);
    completion = std::max(completion, accept + writeLatencyCycles);
    mc.lastCompletion = completion;
    mc.inflight.push_back(completion);

    statWrites.inc();
    statBytes.inc(bytes);
    return {accept, completion};
}

Cycle
Nvm::readLatency(Cycle now)
{
    statReads.inc();
    return now + readLatencyCycles;
}

Cycle
Nvm::nextCompletionCycle(Cycle now) const
{
    Cycle next = neverCycle;
    for (const Controller &mc : controllers) {
        auto it = std::lower_bound(mc.inflight.begin(), mc.inflight.end(),
                                   now);
        if (it != mc.inflight.end())
            next = std::min(next, *it);
    }
    return next;
}

Cycle
Nvm::drainAllBy() const
{
    Cycle latest = 0;
    for (const auto &mc : controllers)
        latest = std::max(latest, mc.lastCompletion);
    return latest;
}

unsigned
Nvm::wpqOccupancy(unsigned mc_idx, Cycle now) const
{
    PPA_ASSERT(mc_idx < controllers.size(), "bad controller index");
    const Controller &mc = controllers[mc_idx];
    unsigned n = 0;
    for (Cycle c : mc.inflight) {
        if (c > now)
            ++n;
    }
    return n;
}

} // namespace ppa
