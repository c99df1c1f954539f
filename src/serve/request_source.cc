#include "serve/request_source.hh"

#include "common/logging.hh"
#include "isa/semantics.hh"

namespace ppa
{
namespace serve
{

namespace
{

// Register conventions inside a request block. Blocks are
// self-contained: every register is defined by a movi before use, so
// consecutive requests carry no register dependencies between them.
constexpr ArchReg rKey = 2;
constexpr ArchReg rAddr = 1;
constexpr ArchReg rTmp0 = 3;
constexpr ArchReg rTmp1 = 4;
constexpr ArchReg rTmp2 = 5;
constexpr ArchReg rTmp3 = 6;
constexpr ArchReg rTmp4 = 7;
constexpr ArchReg rVal = 8;
constexpr ArchReg rFold = 9;
constexpr ArchReg rSeq = 10;
constexpr ArchReg rAck = 11;

} // namespace

const char *
serveWorkloadToken(ServeWorkload w)
{
    switch (w) {
      case ServeWorkload::Tatp:
        return "tatp";
      case ServeWorkload::Tpcc:
        return "tpcc";
      case ServeWorkload::Kv:
        return "kv";
    }
    return "?";
}

bool
serveWorkloadFromToken(const std::string &token, ServeWorkload &out)
{
    if (token == "tatp") {
        out = ServeWorkload::Tatp;
        return true;
    }
    if (token == "tpcc") {
        out = ServeWorkload::Tpcc;
        return true;
    }
    if (token == "kv") {
        out = ServeWorkload::Kv;
        return true;
    }
    return false;
}

RequestSource::RequestSource(const RequestStreamConfig &config)
    : cfg(config), zipf(config.keys, config.skew), rng(config.seed)
{
    PPA_ASSERT(cfg.keys && (cfg.keys & (cfg.keys - 1)) == 0,
               "serve key space must be a power of two, got ",
               cfg.keys);
    PPA_ASSERT(cfg.readPct <= 100, "read_pct must be 0..100");
    PPA_ASSERT(cfg.ackAddr != 0, "serve stream needs an ack word");
    // A ring freed by an earlier source may hold its instructions, but
    // next() and seekTo() only reach indices this source has pushed.
    if (auto freed = HistoryPool::take([](const std::vector<DynInst> &h) {
            return h.size() == historyCap;
        }))
        hist = std::move(*freed);
    else
        hist.resize(historyCap);
}

RequestSource::~RequestSource()
{
    if (hist.size() == historyCap)
        HistoryPool::give(std::move(hist));
}

void
RequestSource::push(DynInst inst)
{
    inst.index = frontier;
    applyDynInst(inst, state, mem);
    hist[frontier & (historyCap - 1)] = inst;
    ++frontier;
}

void
RequestSource::movi(ArchReg rd, Word imm)
{
    DynInst di;
    di.op = Opcode::IntMov;
    di.dst = RegRef::intReg(rd);
    di.imm = imm;
    push(di);
}

void
RequestSource::alu(Opcode op, ArchReg rd, ArchReg ra, ArchReg rb,
                   Word imm)
{
    DynInst di;
    di.op = op;
    di.dst = RegRef::intReg(rd);
    di.srcs[0] = RegRef::intReg(ra);
    if (rb != invalidArchReg)
        di.srcs[1] = RegRef::intReg(rb);
    di.imm = imm;
    push(di);
}

void
RequestSource::ld(ArchReg rd, ArchReg rbase, Word off)
{
    DynInst di;
    di.op = Opcode::Load;
    di.dst = RegRef::intReg(rd);
    di.srcs[0] = RegRef::intReg(rbase);
    di.imm = off;
    di.memAddr = MemImage::wordAlign(
        state.read(RegClass::Int, rbase) + off);
    push(di);
}

void
RequestSource::st(ArchReg rdata, ArchReg rbase, Word off)
{
    DynInst di;
    di.op = Opcode::Store;
    di.srcs[0] = RegRef::intReg(rdata);
    di.srcs[1] = RegRef::intReg(rbase);
    di.imm = off;
    di.memAddr = MemImage::wordAlign(
        state.read(RegClass::Int, rbase) + off);
    push(di);
}

void
RequestSource::emitAck()
{
    // Sequence numbers start at 1 so "0" in the NVM ack word reads
    // unambiguously as "no request durable yet".
    movi(rSeq, reqCount + 1);
    movi(rAck, cfg.ackAddr);
    st(rSeq, rAck, 0);
}

void
RequestSource::emitTatp(std::uint64_t key)
{
    Word location = rng.next();
    // Subscriber records are 32 B: [id, location, version, pad].
    movi(rKey, key);
    alu(Opcode::IntShl, rTmp0, rKey, invalidArchReg, 5); // *32
    movi(rAddr, cfg.dataBase);
    alu(Opcode::IntAdd, rAddr, rAddr, rTmp0, 0);
    movi(rVal, location);
    st(rVal, rAddr, 8);  // location = fresh value
    ld(rTmp1, rAddr, 16);
    alu(Opcode::IntAdd, rTmp1, rTmp1, invalidArchReg, 1);
    st(rTmp1, rAddr, 16); // version++
}

void
RequestSource::emitTpcc(std::uint64_t key)
{
    // District records are 16 B: [next order id, order counter];
    // each thread owns one 1024-slot ring of 32 B order records.
    constexpr std::uint64_t orderSlots = 1024;
    movi(rKey, key);
    alu(Opcode::IntShl, rTmp0, rKey, invalidArchReg, 4); // *16
    movi(rAddr, cfg.dataBase);
    alu(Opcode::IntAdd, rAddr, rAddr, rTmp0, 0);
    ld(rTmp1, rAddr, 0);                                 // o_id
    alu(Opcode::IntAdd, rTmp2, rTmp1, invalidArchReg, 1);
    st(rTmp2, rAddr, 0);                                 // o_id++
    alu(Opcode::IntShl, rTmp3, rTmp1, invalidArchReg, 5);
    movi(rTmp4, (orderSlots - 1) * 32);
    alu(Opcode::IntAnd, rTmp3, rTmp3, rTmp4, 0);
    movi(rVal, ordersBase());
    alu(Opcode::IntAdd, rVal, rVal, rTmp3, 0);           // order slot
    st(rTmp1, rVal, 0);                                  // o_id
    movi(rFold, 42);
    st(rFold, rVal, 8);                                  // c_id
    st(rTmp1, rVal, 16);                                 // entry_d
    movi(rFold, 5);
    st(rFold, rVal, 24);                                 // ol_cnt
    ld(rFold, rAddr, 8);
    alu(Opcode::IntAdd, rFold, rFold, invalidArchReg, 1);
    st(rFold, rAddr, 8);                                 // counter++
}

void
RequestSource::emitKv(std::uint64_t key)
{
    bool get = rng.below(100) < cfg.readPct;
    Word value = rng.next();
    // Buckets are 128 B: [key, value x8, pad x7].
    movi(rKey, key);
    alu(Opcode::IntShl, rTmp0, rKey, invalidArchReg, 7); // *128
    movi(rAddr, cfg.dataBase);
    alu(Opcode::IntAdd, rAddr, rAddr, rTmp0, 0);
    if (get) {
        ld(rTmp1, rAddr, 0);
        ld(rTmp2, rAddr, 8);
        ld(rTmp3, rAddr, 16);
        alu(Opcode::IntAdd, rTmp1, rTmp1, rTmp2, 0);
        alu(Opcode::IntAdd, rTmp1, rTmp1, rTmp3, 0);
        movi(rFold, cfg.scratchAddr);
        st(rTmp1, rFold, 0); // publish the fold: keeps loads live
    } else {
        movi(rVal, value);
        st(rKey, rAddr, 0);  // key word
        for (Word off = 8; off <= 64; off += 8)
            st(rVal, rAddr, off);
    }
}

void
RequestSource::emitRequest()
{
    std::uint64_t key = scrambleRank(zipf.sample(rng), cfg.keys);
    switch (cfg.workload) {
      case ServeWorkload::Tatp:
        emitTatp(key);
        break;
      case ServeWorkload::Tpcc:
        emitTpcc(key);
        break;
      case ServeWorkload::Kv:
        emitKv(key);
        break;
    }
    emitAck();
    ++reqCount;
}

bool
RequestSource::next(DynInst &out)
{
    while (readPos >= frontier) {
        if (reqCount >= cfg.requests)
            return false;
        emitRequest();
    }
    PPA_ASSERT(frontier - readPos <= historyCap,
               "request stream read fell behind the history window "
               "(readPos ", readPos, ", frontier ", frontier, ")");
    out = hist[readPos & (historyCap - 1)];
    ++readPos;
    return true;
}

void
RequestSource::seekTo(std::uint64_t index)
{
    PPA_ASSERT(index <= frontier,
               "seek past the generated frontier (", index, " > ",
               frontier, ")");
    PPA_ASSERT(frontier < historyCap || index >= frontier - historyCap,
               "seek beyond the bounded history window (", index,
               " < ", frontier - historyCap, ")");
    readPos = index;
}

} // namespace serve
} // namespace ppa
