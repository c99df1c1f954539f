/**
 * @file
 * The full memory hierarchy as seen by the cores.
 *
 * Private L1D per core, shared L2, optional L3 (Section 7.6), a
 * direct-mapped DRAM cache (PMEM memory mode), and the NVM device.
 * Three operating modes cover the paper's systems:
 *
 *  - memory mode (baseline & PPA): DRAM cache enabled; dirty evictions
 *    from the DRAM cache write back to NVM. Under PPA, committed
 *    stores additionally flow value-exact through per-core write
 *    buffers to NVM (asynchronous store persistence), and cache lines
 *    are left clean so no double writeback occurs.
 *  - app-direct / eADR-BBB (ideal PSP): DRAM cache disabled; NVM is
 *    the main memory directly.
 *  - DRAM-only: a volatile system with flat DRAM latency (Figure 9's
 *    reference).
 */

#ifndef PPA_MEM_HIERARCHY_HH
#define PPA_MEM_HIERARCHY_HH

#include <memory>
#include <vector>

#include "common/types.hh"
#include "common/units.hh"
#include "mem/cache.hh"
#include "mem/dram_cache.hh"
#include "mem/mem_image.hh"
#include "mem/nvm.hh"
#include "mem/params.hh"
#include "mem/write_buffer.hh"
#include "ppa/io_buffer.hh"

namespace ppa
{

/** Result of attempting to merge a committed store into L1D. */
struct StoreMergeResult
{
    /** False when the persist path (WB) is full; retry next cycle. */
    bool accepted = true;
    /** Cycle at which the merge (incl. any line fill) completes. */
    Cycle completeCycle = 0;
};

/**
 * Memory hierarchy shared by all cores of a simulated system.
 */
class MemHierarchy
{
  public:
    /**
     * @param params     geometry/latency configuration
     * @param num_cores  number of cores (private L1Ds and WBs)
     * @param clock      core clock for ns->cycle conversions
     */
    MemHierarchy(const MemSystemParams &params, unsigned num_cores,
                 const ClockDomain &clock);

    /**
     * Timing for a load by @p core_id; updates tags and cascades
     * victims. Returns the completion cycle.
     */
    Cycle load(unsigned core_id, Addr addr, Cycle now);

    /**
     * Instruction fetch by @p core_id: L1I, then the unified levels.
     * Returns the completion cycle (equal to @p now +hit latency on
     * an L1I hit, which the pipelined front end absorbs).
     */
    Cycle instFetch(unsigned core_id, Addr addr, Cycle now);

    /** True when @p addr currently hits in core @p core_id's L1I. */
    bool instHitsL1I(unsigned core_id, Addr addr) const;

    /**
     * Merge a committed store into L1D. With @p persist true (PPA),
     * the store also enters the asynchronous persist path carrying its
     * exact value.
     */
    StoreMergeResult storeMerge(unsigned core_id, Addr addr, Word value,
                                Cycle now, bool persist);

    /**
     * Synchronously write @p addr's line back to NVM (the clwb path of
     * the ReplayCache baseline); returns the ack cycle.
     */
    Cycle clwbLine(unsigned core_id, Addr addr, Cycle now);

    /** Advance asynchronous machinery (WB issue/ack). */
    void tick(Cycle now);

    /**
     * First cycle at or after @p now at which tick() can change
     * anything (neverCycle when it cannot), provided no core adds a
     * store or enqueues an NVM write meanwhile.
     */
    Cycle nextTickEvent(Cycle now) const;

    /** Outstanding persist count for @p core_id (the L1D counter). */
    unsigned outstandingPersists(unsigned core_id) const;

    /**
     * End-of-run drain: push all dirty state to NVM (or simply settle,
     * for DRAM-only). Returns the cycle by which memory is quiescent.
     */
    Cycle drainAll(Cycle now);

    /**
     * Power failure: volatile contents (SRAM caches, DRAM cache,
     * write-buffer entries not yet in the WPQ) are lost. WPQ entries
     * are inside the ADR domain and already applied to the NVM image.
     */
    void powerFail();

    /** The architectural (committed) memory image. */
    MemImage &committed() { return committedImage; }
    const MemImage &committed() const { return committedImage; }

    /** The persisted (NVM) memory image. */
    MemImage &nvmImage() { return persistedImage; }
    const MemImage &nvmImage() const { return persistedImage; }

    /**
     * Write @p value to both the NVM and the committed image, past the
     * caches and the persist path: recovery's CSQ replay and the
     * seeding of program data.
     */
    void recoveryWrite(Addr addr, Word value);

    /**
     * Synchronous persistent write of an atomic RMW under PPA: the
     * sync primitive's own store is persisted before it commits
     * (Section 6), so it is never replayed (replaying an RMW would
     * not be idempotent). Returns the NVM ack cycle.
     */
    Cycle atomicPersistWrite(Addr addr, Word value, Cycle now);

    Nvm &nvm() { return *nvmDevice; }
    /** The battery-backed I/O window (Section 5); may be disabled. */
    IoBuffer &ioBuffer() { return ioWindow; }
    const IoBuffer &ioBuffer() const { return ioWindow; }
    Cache &l1d(unsigned core_id) { return *l1dCaches[core_id]; }
    Cache &l2() { return *sharedCaches.front(); }
    WriteBuffer &writeBuffer(unsigned core_id)
    {
        return *writeBuffers[core_id];
    }

    const MemSystemParams &params() const { return cfg; }

  private:
    /**
     * The walk below the L1s for a line that missed in an L1: the
     * shared caches top down, then the DRAM cache (or flat DRAM on a
     * DRAM-only system), then NVM; each level's dirty victim goes
     * through cascadeVictim(). Returns the cycles the fill adds past
     * the L1 hit latency.
     */
    Cycle fillBelowL1(Addr addr, Cycle now);

    /**
     * Place a dirty victim into sharedCaches[@p level] (0: a victim
     * leaving the L1D goes to the L2), else into the DRAM cache, else
     * into NVM, cascading whatever dirty line it displaces. Returns
     * the stall (cycles) the evicting access absorbs when a writeback
     * is blocked on a full WPQ (the fill cannot complete until the
     * victim has somewhere to go).
     */
    Cycle cascadeVictim(std::size_t level, Addr victim_line, Cycle now);

    /** Write a full line (from the committed image) back to NVM; on a
     *  DRAM-only system nothing is written and the ticket is @p now. */
    NvmWriteTicket writebackLineToNvm(Addr line_addr, Cycle now);

    /** Apply @p fn to every level below the L1s that holds lines: the
     *  shared caches top down, then the DRAM cache. */
    template <typename Fn>
    void
    forEachLevelBelowL1(Fn &&fn)
    {
        for (auto &level : sharedCaches)
            fn(*level);
        if (dramCacheModel)
            fn(*dramCacheModel);
    }

    MemSystemParams cfg;
    unsigned numCores;
    ClockDomain clock;

    std::vector<std::unique_ptr<Cache>> l1iCaches;
    std::vector<std::unique_ptr<Cache>> l1dCaches;
    /** The L2, then the L3 when enabled. */
    std::vector<std::unique_ptr<Cache>> sharedCaches;
    std::unique_ptr<DramCache> dramCacheModel; // may be null
    std::unique_ptr<Nvm> nvmDevice;
    std::vector<std::unique_ptr<WriteBuffer>> writeBuffers;

    MemImage committedImage;
    MemImage persistedImage;
    IoBuffer ioWindow;

    Cycle dramOnlyLatency;
};

} // namespace ppa

#endif // PPA_MEM_HIERARCHY_HH
