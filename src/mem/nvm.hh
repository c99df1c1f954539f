/**
 * @file
 * Persistent-memory device model: per-controller write pending queues
 * (WPQ) with a sustained-write-bandwidth service model, fixed read
 * latency, and line-address interleaving across controllers.
 *
 * The WPQ is inside the persistence domain (ADR), so a write is
 * considered *persistent* once it enters the WPQ; however, the queue's
 * finite depth and the device's limited write bandwidth are what
 * back-pressure the core — the effect Figures 15 and 18 sweep.
 *
 * For crash-consistency accounting we treat a write as persisted when
 * its WPQ entry drains to media; this is the conservative reading used
 * by the paper's region-persistence acknowledgments.
 */

#ifndef PPA_MEM_NVM_HH
#define PPA_MEM_NVM_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "common/units.hh"
#include "mem/params.hh"

namespace ppa
{

/** Outcome of enqueueing a write into an NVM controller. */
struct NvmWriteTicket
{
    /** Cycle at which the WPQ had room and accepted the write. */
    Cycle acceptCycle = 0;
    /** Cycle at which the write has fully drained to media. */
    Cycle ackCycle = 0;
};

/**
 * The NVM main-memory device with its controllers.
 */
class Nvm
{
  public:
    Nvm(const NvmParams &params, const ClockDomain &clock);

    /** Controller servicing @p line_addr (line-interleaved). */
    unsigned controllerOf(Addr line_addr) const;

    /**
     * Enqueue a @p bytes write to @p line_addr at time @p now.
     * If the WPQ is full, acceptance (and hence the caller's stall)
     * is pushed out to when a slot frees.
     */
    NvmWriteTicket enqueueWrite(Addr line_addr, unsigned bytes, Cycle now);

    /**
     * Probe (without side effects) whether @p line_addr's controller
     * can accept a write immediately at @p now.
     */
    bool writeAcceptable(Addr line_addr, Cycle now);

    /**
     * First cycle at or after @p now at which writeAcceptable(@p
     * line_addr) holds, assuming no further writes are enqueued.
     */
    Cycle slotFreeCycle(Addr line_addr, Cycle now) const;

    /** Completion time of a read issued at @p now. */
    Cycle readLatency(Cycle now);

    /** First in-flight completion at or after @p now: the next cycle
     *  at which some wpqOccupancy() drops; neverCycle when none. */
    Cycle nextCompletionCycle(Cycle now) const;

    /** Largest ack cycle issued so far (for final drain). */
    Cycle drainAllBy() const;

    /** Current WPQ occupancy of @p mc at time @p now. */
    unsigned wpqOccupancy(unsigned mc, Cycle now) const;

    std::uint64_t writeCount() const { return statWrites.value(); }
    std::uint64_t readCount() const { return statReads.value(); }
    std::uint64_t bytesWritten() const { return statBytes.value(); }

    /** Total cycles writes spent blocked waiting for a WPQ slot. */
    std::uint64_t wpqStallCycles() const { return statWpqStall.value(); }

    const NvmParams &params() const { return nvmParams; }

  private:
    struct Controller
    {
        /** Completion cycles of in-flight WPQ entries, FIFO order. */
        std::deque<Cycle> inflight;
        Cycle lastCompletion = 0;
    };

    void retire(Controller &mc, Cycle now);

    NvmParams nvmParams;
    ClockDomain clock;
    std::vector<Controller> controllers;

    Cycle writeServiceCycles(unsigned bytes) const;
    Cycle readLatencyCycles;
    Cycle writeLatencyCycles;

    stats::Counter statWrites;
    stats::Counter statReads;
    stats::Counter statBytes;
    stats::Counter statWpqStall;
};

} // namespace ppa

#endif // PPA_MEM_NVM_HH
