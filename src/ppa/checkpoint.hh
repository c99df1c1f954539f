/**
 * @file
 * JIT checkpoint image (paper Sections 3.4, 4.5).
 *
 * On the Power_Fail signal, PPA saves exactly five structures to a
 * designated checkpoint area in NVM: the CSQ, the last committed PC
 * (LCPC), the commit rename table (CRT), the MaskReg, and the physical
 * registers referenced by CSQ or CRT entries. Free registers and
 * registers belonging to in-flight (uncommitted) instructions are NOT
 * checkpointed — recovery resumes from the latest uncommitted
 * instruction after LCPC, so speculative state is irrelevant.
 *
 * The image also reports its own size in bytes (rounded to 8-byte
 * entries like the hardware's non-temporal path), which the energy
 * model uses to size the backup capacitor (Section 7.13).
 */

#ifndef PPA_PPA_CHECKPOINT_HH
#define PPA_PPA_CHECKPOINT_HH

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "common/bitvector.hh"
#include "common/types.hh"
#include "ppa/csq.hh"

namespace ppa
{

/**
 * The five JIT-checkpointed structures, plus bookkeeping for sizing.
 */
struct CheckpointImage
{
    bool valid = false;

    /** (1) Committed store queue contents, front to rear. */
    std::deque<CsqEntry> csq;

    /** (2) Last committed PC (committed-stream index). */
    std::uint64_t lcpc = 0;
    /** True once at least one instruction has committed. */
    bool anyCommitted = false;

    /** (3) Commit rename table: arch -> phys, per register class. */
    std::vector<PhysReg> crtInt;
    std::vector<PhysReg> crtFp;

    /** (4) MaskReg raw bits. */
    BitVector maskBits;

    /** (5) Values of the physical registers marked by CRT or CSQ,
     *      keyed by global physical register index. */
    std::map<unsigned, Word> physRegValues;

    /**
     * Checkpointed bytes at 8-byte granularity: each CSQ entry, each
     * CRT entry, each register value, the LCPC, and the MaskReg words
     * round to 8-byte units (Section 7.12).
     */
    std::uint64_t
    sizeBytes() const
    {
        std::uint64_t bytes = 0;
        bytes += csq.size() * 8;            // (reg index, addr) per entry
        bytes += 8;                         // LCPC
        bytes += (crtInt.size() + crtFp.size()) * 8;
        bytes += maskBits.storageBytes();
        // The paper's worst case assumes 128-bit physical registers
        // (vector-capable); we account 16 bytes per register to match.
        bytes += physRegValues.size() * 16;
        return bytes;
    }
};

/**
 * The NVM writes recovery's CSQ replay makes (Section 4.6): one per
 * entry of @p csq, front to rear, as @p write(addr, value). An entry
 * writes its inline value, zero for an architecturally zero operand,
 * or @p reg_value(g) for global physical register g. System::recover
 * replays the cores in index order, so across cores the last core's
 * write to an address wins.
 */
template <class RegValue, class Write>
void
forEachReplayWrite(const std::deque<CsqEntry> &csq, RegValue &&reg_value,
                   Write &&write)
{
    for (const CsqEntry &entry : csq) {
        if (entry.carriesValue)
            write(entry.addr, entry.value);
        else if (entry.physRegIndex == csqZeroRegIndex)
            write(entry.addr, Word{0});
        else
            write(entry.addr, reg_value(entry.physRegIndex));
    }
}

} // namespace ppa

#endif // PPA_PPA_CHECKPOINT_HH
