/**
 * @file
 * Streaming transaction-request source for the serving harness
 * (docs/SERVING.md).
 *
 * Each simulated core is fed by one RequestSource: an unbounded
 * committed-path DynInst stream synthesized one request at a time.
 * Request parameters (Zipfian key, kv GET/SET choice, payload values)
 * are drawn host-side from a per-stream Rng, then expanded into a
 * short straight-line instruction block that performs the transaction
 * against the thread-private data region and finally stores the
 * request sequence number to the stream's ack word — the commit of
 * that ack store is the request's completion event.
 *
 * Generation is functional: the source maintains the golden
 * (ArchState, MemImage) pair and resolves every effective address
 * through isa/semantics.hh exactly like ProgramExecutor, so the core
 * re-executes real dataflow. Unlike ProgramExecutor the source does
 * not memoize millions of instructions; it keeps a bounded history
 * ring so that power-failure recovery's bounded backward seekTo
 * (LCPC + 1) replays from the ring. Blocks are straight-line — no
 * branches — so streams contain no mispredictions by construction.
 */

#ifndef PPA_SERVE_REQUEST_SOURCE_HH
#define PPA_SERVE_REQUEST_SOURCE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/recycler.hh"
#include "common/rng.hh"
#include "isa/arch.hh"
#include "isa/source.hh"
#include "mem/mem_image.hh"
#include "serve/zipf.hh"

namespace ppa
{
namespace serve
{

/** The transaction kernels the server dispatches. */
enum class ServeWorkload : std::uint8_t
{
    Tatp, ///< TATP location update: 2 record stores + version RMW
    Tpcc, ///< TPC-C new-order: district counters + order-record fill
    Kv,   ///< Key-value store: GET (loads+fold) / SET (9-word write)
};

/** CLI/serialization token ("tatp", "tpcc", "kv"). */
const char *serveWorkloadToken(ServeWorkload w);

/** Parse a workload token; false for unknown tokens. */
bool serveWorkloadFromToken(const std::string &token, ServeWorkload &out);

/** Configuration of one per-thread request stream. */
struct RequestStreamConfig
{
    ServeWorkload workload = ServeWorkload::Tatp;
    /** Requests this stream issues. */
    std::uint64_t requests = 0;
    /** Key-space size (records / districts / buckets); power of two. */
    std::uint64_t keys = 4096;
    /** Zipfian skew theta (0 = uniform). */
    double skew = 0.99;
    /** kv GET percentage, 0..100. */
    unsigned readPct = 50;
    /** Per-stream seed (already mixed with the thread id). */
    std::uint64_t seed = 42;
    /** Base of this stream's private data region. */
    Addr dataBase = 0;
    /** Word receiving the per-request completion (ack) store. */
    Addr ackAddr = 0;
    /** Word receiving kv GET fold results (keeps loads live). */
    Addr scratchAddr = 0;
};

class RequestSource : public DynInstSource
{
  public:
    /** Committed-stream instructions retained for backward seeks. */
    static constexpr std::uint64_t historyCap = 1u << 15;

    explicit RequestSource(const RequestStreamConfig &config);
    ~RequestSource() override;

    bool next(DynInst &out) override;
    void seekTo(std::uint64_t index) override;

    /** Requests fully generated so far. */
    std::uint64_t generatedRequests() const { return reqCount; }
    /** Instructions generated so far (the stream frontier). */
    std::uint64_t generatedInsts() const { return frontier; }
    /** Golden memory after every generated instruction. */
    const MemImage &goldenMemory() const { return mem; }
    const RequestStreamConfig &config() const { return cfg; }
    /** TPC-C order-ring base (derived from the data layout). */
    Addr ordersBase() const
    {
        return cfg.dataBase + cfg.keys * 16;
    }

  private:
    void emitRequest();

    // ---- functional emit helpers (mirror ProgramExecutor) ----------
    void push(DynInst inst);
    void movi(ArchReg rd, Word imm);
    void alu(Opcode op, ArchReg rd, ArchReg ra, ArchReg rb, Word imm);
    void ld(ArchReg rd, ArchReg rbase, Word off);
    void st(ArchReg rdata, ArchReg rbase, Word off);

    void emitTatp(std::uint64_t key);
    void emitTpcc(std::uint64_t key);
    void emitKv(std::uint64_t key);
    void emitAck();

    RequestStreamConfig cfg;
    ZipfGenerator zipf;
    Rng rng;

    ArchState state;
    MemImage mem;

    /** Freed history rings; a serving run has one source per core. */
    using HistoryPool = Recycler<std::vector<DynInst>, 4>;

    /** Circular history of the last historyCap instructions. */
    std::vector<DynInst> hist;
    std::uint64_t frontier = 0; ///< total instructions generated
    std::uint64_t readPos = 0;  ///< next index next() returns
    std::uint64_t reqCount = 0; ///< requests generated
};

} // namespace serve
} // namespace ppa

#endif // PPA_SERVE_REQUEST_SOURCE_HH
