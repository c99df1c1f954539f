/**
 * @file
 * A complete simulated system: N cores sharing a memory hierarchy.
 *
 * Owns the cores, the hierarchy, and (for the Capri baseline) the
 * per-core redo-buffer channels. Provides whole-system power-failure
 * injection and recovery: every core JIT-checkpoints independently and
 * recovery replays each core's CSQ in arbitrary core order, which is
 * safe for DRF programs because the cores' CSQ entries are disjoint
 * (paper Section 6).
 */

#ifndef PPA_SIM_SYSTEM_HH
#define PPA_SIM_SYSTEM_HH

#include <memory>
#include <vector>

#include "baselines/capri.hh"
#include "core/core.hh"
#include "core/params.hh"
#include "mem/hierarchy.hh"
#include "mem/params.hh"

namespace ppa
{

/** Top-level configuration of a simulated system. */
struct SystemConfig
{
    CoreParams core;
    MemSystemParams mem;
    unsigned numCores = 1;
    double clockGhz = 2.0;
};

/**
 * The simulated machine.
 */
class System
{
  public:
    explicit System(const SystemConfig &config);

    /** Attach core @p core_id's committed-path source. */
    void bindSource(unsigned core_id, DynInstSource *source);

    /** Seed main memory (NVM + committed image) with initial data. */
    void seedMemory(const MemImage &initial);

    /**
     * Advance the whole system one cycle. The per-cycle reference:
     * run() and runUntilCycle() reach the same state, skipping cycles
     * in which nothing happens.
     */
    void tick();

    /** True when every core has drained its pipeline. */
    bool allDone() const;

    /**
     * Run until all cores are done (or @p max_cycles elapse), then
     * drain the memory system. Returns the final cycle count.
     */
    Cycle run(Cycle max_cycles = 0);

    /** Run until the global cycle reaches @p target_cycle or every
     *  core is done. */
    void runUntilCycle(Cycle target_cycle);

    /**
     * Inject a whole-system power failure: all cores JIT-checkpoint
     * (PPA) and the volatile memory hierarchy is wiped.
     */
    std::vector<CheckpointImage> powerFail();

    /** Restore after power-on from per-core checkpoint images. */
    void recover(const std::vector<CheckpointImage> &images);

    Core &core(unsigned i) { return *cores[i]; }
    const Core &core(unsigned i) const { return *cores[i]; }
    unsigned numCores() const { return static_cast<unsigned>(
        cores.size()); }
    MemHierarchy &memory() { return *hierarchy; }
    const MemHierarchy &memory() const { return *hierarchy; }
    Cycle cycle() const { return curCycle; }
    const ClockDomain &clock() const { return clockDomain; }

    /** Sum of committed instructions over all cores. */
    std::uint64_t totalCommitted() const;

  private:
    /**
     * tick(); then, when no core changed state in it, jump to the
     * first cycle (at most @p limit) at which a repeat of it could
     * behave differently, booking the skipped repeats in bulk.
     */
    void advance(Cycle limit);

    /** Sum of every core's activity count. */
    std::uint64_t activityCount() const;

    SystemConfig cfg;
    ClockDomain clockDomain;
    std::unique_ptr<MemHierarchy> hierarchy;
    std::vector<std::unique_ptr<Core>> cores;
    std::vector<std::unique_ptr<CapriChannel>> capriChannels;
    Cycle curCycle = 0;
};

} // namespace ppa

#endif // PPA_SIM_SYSTEM_HH
