#include "workload/generator.hh"

#include <algorithm>

#include "isa/arch.hh"
#include "mem/mem_image.hh"

namespace ppa
{

namespace
{

/**
 * Each thread owns a private slice of the address space. The stride
 * is deliberately NOT a multiple of any power-of-two DRAM-cache
 * capacity in use, so the threads' hot sets land in different
 * direct-mapped sets (physical pages of separate processes are
 * scattered in reality).
 */
constexpr Addr threadSliceBytes =
    Addr{512} * MiB + 1 * MiB + 192 * KiB;

} // namespace

StreamGenerator::StreamGenerator(const WorkloadProfile &profile,
                                 unsigned thread_id, std::uint64_t seed,
                                 std::uint64_t length)
    : cfg(profile), threadId(thread_id), baseSeed(seed),
      maxLength(length), rng(seed)
{
    resetState();
}

Addr
StreamGenerator::privateBase() const
{
    return Addr{threadId} * threadSliceBytes + (Addr{1} << 30);
}

void
StreamGenerator::resetState()
{
    rng = Rng(baseSeed * 0x1000193 + threadId * 0x9E3779B9ull + 7);
    position = 0;
    recentInt.clear();
    recentFp.clear();
    recentAluInt.clear();
    seqCursor = privateBase();
    lastStoreAddr = privateBase();
    sinceSync = 0;
    nextSyncAt = cfg.syncEveryInsts
                     ? cfg.syncEveryInsts / 2 +
                           rng.below(cfg.syncEveryInsts + 1)
                     : 0;
}

ArchReg
StreamGenerator::pickIntDst()
{
    // Register pressure: a high-pressure application cycles through
    // (nearly) the whole architectural file, forcing rapid physical
    // register turnover; a low-pressure one reuses a small subset
    // rarely redefined.
    auto active = static_cast<ArchReg>(std::clamp(
        static_cast<int>(cfg.regPressure * numArchIntRegs), 4,
        numArchIntRegs));
    auto r = static_cast<ArchReg>(rng.below(active));
    recentInt.push_back(r);
    if (recentInt.size() > 8)
        recentInt.erase(recentInt.begin());
    return r;
}

ArchReg
StreamGenerator::pickIntSrc()
{
    if (!recentInt.empty() && rng.chance(cfg.depChainProb))
        return recentInt[rng.below(recentInt.size())];
    return static_cast<ArchReg>(rng.below(numArchIntRegs));
}

ArchReg
StreamGenerator::pickFpDst()
{
    auto active = static_cast<ArchReg>(std::clamp(
        static_cast<int>(cfg.regPressure * numArchFpRegs), 6,
        numArchFpRegs));
    auto r = static_cast<ArchReg>(rng.below(active));
    recentFp.push_back(r);
    if (recentFp.size() > 8)
        recentFp.erase(recentFp.begin());
    return r;
}

ArchReg
StreamGenerator::pickFpSrc()
{
    if (!recentFp.empty() && rng.chance(cfg.depChainProb))
        return recentFp[rng.below(recentFp.size())];
    return static_cast<ArchReg>(rng.below(numArchFpRegs));
}

Addr
StreamGenerator::pickLoadAddr()
{
    if (rng.chance(cfg.seqAccessProb)) {
        seqCursor += 8;
        if (seqCursor >= privateBase() + cfg.workingSetBytes)
            seqCursor = privateBase();
        return seqCursor;
    }
    if (rng.chance(cfg.hotFraction)) {
        return privateBase() +
               MemImage::wordAlign(rng.below(cfg.hotSetBytes));
    }
    return privateBase() +
           MemImage::wordAlign(rng.below(cfg.workingSetBytes));
}

Addr
StreamGenerator::pickStoreAddr()
{
    if (rng.chance(cfg.storeSpatialLocality)) {
        // Stay within the previous store's cache line: real store
        // streams revisit a handful of hot lines (stack frames, log
        // tails, node fields), which is what the write buffer's
        // persist coalescing absorbs (Section 4.3). The run length is
        // geometric with mean 1/(1 - storeSpatialLocality).
        Addr line = lastStoreAddr & ~Addr{63};
        lastStoreAddr = line + 8 * rng.below(8);
        return lastStoreAddr;
    }
    lastStoreAddr = pickLoadAddr();
    return lastStoreAddr;
}

DynInst
StreamGenerator::generateOne()
{
    DynInst di;
    di.index = position;
    // Synthetic code layout: execution loops over a hot code region
    // of codeFootprintBytes (4-byte instructions), so branch PCs
    // repeat and the predictor/L1I see realistic reuse.
    di.pc = 0x4000'0000ull +
            (position * 4) % std::max<std::uint64_t>(
                                 64, cfg.codeFootprintBytes);

    // Synchronization primitives at the profile's cadence.
    if (cfg.syncEveryInsts && sinceSync >= nextSyncAt) {
        sinceSync = 0;
        nextSyncAt = cfg.syncEveryInsts / 2 +
                     rng.below(cfg.syncEveryInsts + 1);
        if (rng.chance(cfg.syncAtomicFraction)) {
            di.op = Opcode::AtomicRmw;
            di.dst = RegRef::intReg(pickIntDst());
            di.srcs[0] = RegRef::intReg(pickIntSrc());
            // A handful of shared counters (lock words / barriers),
            // padded to separate cache lines as real lock arrays are.
            di.memAddr = sharedSyncBase + 64 * rng.below(16);
        } else {
            di.op = Opcode::Fence;
        }
        return di;
    }
    ++sinceSync;

    // The op at each PC is fixed (real code is a loop: the same
    // instruction sits at the same address every lap); operands,
    // addresses, and data vary per lap through the RNG stream.
    std::uint64_t h = di.pc * 0x9E3779B97F4A7C15ull;
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 32;
    double u = static_cast<double>(h & 0xFFFFFF) /
               static_cast<double>(1 << 24);
    double u2 = static_cast<double>((h >> 24) & 0xFFFFFF) /
                static_cast<double>(1 << 24);

    if (u < cfg.fracLoad) {
        bool fp = u2 < cfg.fracFpOps;
        di.op = fp ? Opcode::FpLoad : Opcode::Load;
        di.dst = fp ? RegRef::fpReg(pickFpDst())
                    : RegRef::intReg(pickIntDst());
        di.memAddr = pickLoadAddr();
        return di;
    }
    u -= cfg.fracLoad;

    if (u < cfg.fracStore) {
        bool fp = u2 < cfg.fracFpOps;
        di.op = fp ? Opcode::FpStore : Opcode::Store;
        di.srcs[0] = fp ? RegRef::fpReg(pickFpSrc())
                        : RegRef::intReg(pickIntSrc());
        di.memAddr = pickStoreAddr();
        return di;
    }
    u -= cfg.fracStore;

    if (u < cfg.fracBranch) {
        di.op = Opcode::Branch;
        // Condition registers come from ALU results when available.
        di.srcs[0] = RegRef::intReg(
            recentAluInt.empty()
                ? pickIntSrc()
                : recentAluInt[rng.below(recentAluInt.size())]);
        // Real branches are strongly biased per static PC (that is
        // what makes them predictable): a stable per-PC direction,
        // flipped occasionally. The resulting ~95% per-PC stability
        // yields realistic predictor accuracy.
        bool bias = u2 < cfg.branchTakenProb;
        di.taken = rng.chance(0.025) ? !bias : bias;
        return di;
    }

    // ALU operation.
    if (u2 < cfg.fracFpOps) {
        double v = static_cast<double>((h >> 48) & 0xFFFF) / 65536.0;
        di.op = v < 0.5 ? Opcode::FpAdd
                        : (v < 0.97 ? Opcode::FpMul : Opcode::FpDiv);
        di.dst = RegRef::fpReg(pickFpDst());
        di.srcs[0] = RegRef::fpReg(pickFpSrc());
        di.srcs[1] = RegRef::fpReg(pickFpSrc());
        return di;
    }

    double v = static_cast<double>((h >> 40) & 0xFFFFFF) /
               static_cast<double>(1 << 24);
    if (v < cfg.fracMul) {
        di.op = Opcode::IntMul;
    } else if (v < cfg.fracMul + cfg.fracDiv) {
        di.op = Opcode::IntDiv;
    } else {
        static constexpr Opcode simple[] = {
            Opcode::IntAdd, Opcode::IntSub, Opcode::IntAnd,
            Opcode::IntOr, Opcode::IntXor, Opcode::IntShl,
            Opcode::IntShr, Opcode::IntCmpLt,
        };
        di.op = simple[(h >> 16) & 7];
    }
    di.dst = RegRef::intReg(pickIntDst());
    recentAluInt.push_back(di.dst.idx);
    if (recentAluInt.size() > 6)
        recentAluInt.erase(recentAluInt.begin());
    di.srcs[0] = RegRef::intReg(pickIntSrc());
    di.srcs[1] = RegRef::intReg(pickIntSrc());
    di.imm = rng.below(256);
    return di;
}

void
StreamGenerator::maybeSnapshot()
{
    // Capture the state just before generating instruction
    // `position`, once per snapshotInterval boundary. The second
    // clause makes this idempotent across replays: a boundary crossed
    // again after a backward seek is already recorded (and the stream
    // is deterministic, so the recorded state is still correct).
    if (position % snapshotInterval != 0 ||
        position / snapshotInterval != snapshots.size()) {
        return;
    }
    snapshots.push_back(Snapshot{rng.getState(), position, recentInt,
                                 recentFp, recentAluInt, seqCursor,
                                 lastStoreAddr, sinceSync, nextSyncAt});
}

void
StreamGenerator::restoreSnapshot(const Snapshot &snap)
{
    rng.setState(snap.rngState);
    position = snap.position;
    recentInt = snap.recentInt;
    recentFp = snap.recentFp;
    recentAluInt = snap.recentAluInt;
    seqCursor = snap.seqCursor;
    lastStoreAddr = snap.lastStoreAddr;
    sinceSync = snap.sinceSync;
    nextSyncAt = snap.nextSyncAt;
}

bool
StreamGenerator::next(DynInst &out)
{
    if (maxLength && position >= maxLength)
        return false;
    maybeSnapshot();
    out = generateOne();
    ++position;
    return true;
}

void
StreamGenerator::seekTo(std::uint64_t index)
{
    // Trivial seek: already positioned there, so restoring a
    // snapshot and regenerating up to here would be wasted work.
    if (index == position)
        return;
    if (index < position) {
        // Resume from the nearest snapshot at or below the target
        // instead of replaying the whole stream from zero (recovery
        // seeks after a long run used to cost O(index)).
        std::size_t k = static_cast<std::size_t>(
            index / snapshotInterval);
        if (!snapshots.empty()) {
            restoreSnapshot(
                snapshots[std::min(k, snapshots.size() - 1)]);
        } else {
            resetState();
        }
    }
    DynInst scratch;
    while (position < index) {
        maybeSnapshot();
        scratch = generateOne();
        ++position;
    }
}

} // namespace ppa
