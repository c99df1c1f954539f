/**
 * @file
 * Deterministic synthetic instruction-stream generator.
 *
 * Produces the committed path of a modeled application from its
 * WorkloadProfile (see profile.hh). Generation is a pure function of
 * (profile, seed, position), which is what makes power-failure
 * recovery work on synthetic streams too: seekTo() regenerates from
 * the nearest periodic state snapshot at or below the target index,
 * so a backward seek (replay after a failure) costs at most one
 * snapshot interval of regeneration instead of a replay from zero.
 */

#ifndef PPA_WORKLOAD_GENERATOR_HH
#define PPA_WORKLOAD_GENERATOR_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "isa/source.hh"
#include "workload/profile.hh"

namespace ppa
{

/**
 * A stream of DynInsts following a workload profile's statistics.
 */
class StreamGenerator : public DynInstSource
{
  public:
    /**
     * @param profile  the application model
     * @param thread_id this stream's thread (selects the private
     *                  address-space slice and the RNG stream)
     * @param seed     experiment seed
     * @param length   total committed-path length (0 = unbounded)
     */
    StreamGenerator(const WorkloadProfile &profile, unsigned thread_id,
                    std::uint64_t seed, std::uint64_t length = 0);

    bool next(DynInst &out) override;
    void seekTo(std::uint64_t index) override;

    /** Base address of this thread's private data slice. */
    Addr privateBase() const;

    /** Base address of the shared synchronization area. */
    static constexpr Addr sharedSyncBase = 0x7000'0000'0000ull;

    /** Snapshot cadence, in instructions (bound on backward-seek
     *  replay cost). */
    static constexpr std::uint64_t snapshotInterval = 4096;

  private:
    /**
     * Complete mutable generator state as of some stream position.
     * Restoring it reproduces the stream from that position bitwise,
     * because generateOne() reads nothing else that varies.
     */
    struct Snapshot
    {
        std::array<std::uint64_t, 4> rngState;
        std::uint64_t position;
        std::vector<ArchReg> recentInt;
        std::vector<ArchReg> recentFp;
        std::vector<ArchReg> recentAluInt;
        Addr seqCursor;
        Addr lastStoreAddr;
        std::uint64_t sinceSync;
        std::uint64_t nextSyncAt;
    };

    void resetState();
    void maybeSnapshot();
    void restoreSnapshot(const Snapshot &snap);
    DynInst generateOne();

    ArchReg pickIntDst();
    ArchReg pickIntSrc();
    ArchReg pickFpDst();
    ArchReg pickFpSrc();
    Addr pickLoadAddr();
    Addr pickStoreAddr();

    WorkloadProfile cfg;
    unsigned threadId;
    std::uint64_t baseSeed;
    std::uint64_t maxLength;

    Rng rng;
    std::uint64_t position = 0;

    // Recently defined registers (for dependency-chain construction).
    std::vector<ArchReg> recentInt;
    std::vector<ArchReg> recentFp;
    /** Recent ALU-produced (non-load) integer registers: branch
     *  conditions source these, so mispredict resolution does not
     *  ride on cache-miss latency (as in real code, where branches
     *  test loop counters and flags). */
    std::vector<ArchReg> recentAluInt;

    Addr seqCursor = 0;
    Addr lastStoreAddr = 0;
    std::uint64_t sinceSync = 0;
    std::uint64_t nextSyncAt = 0;

    /** snapshots[k] captures the state just before instruction
     *  k * snapshotInterval is generated. Append-only: the stream is
     *  deterministic, so entries stay valid across seeks. */
    std::vector<Snapshot> snapshots;
};

} // namespace ppa

#endif // PPA_WORKLOAD_GENERATOR_HH
