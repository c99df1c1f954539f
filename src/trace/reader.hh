/**
 * @file
 * Trace replay: load a trace directory's manifest, stream its shards
 * through the core, and verify on-disk integrity.
 *
 * TraceReplaySource is the trace-driven counterpart of
 * StreamGenerator: one per recorded thread, feeding the core through
 * the DynInstSource interface. It decodes one block at a time on the
 * thread that calls next(), when the cursor leaves the decoded block.
 */

#ifndef PPA_TRACE_READER_HH
#define PPA_TRACE_READER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/source.hh"
#include "trace/writer.hh"

namespace ppa
{
namespace trace
{

/**
 * A trace directory's manifest: identity plus the shard index.
 * Immutable once loaded; shared by all per-thread replay sources.
 */
class TraceSet
{
  public:
    /**
     * Parse the manifest in @p dir.
     * @return false with @p error set on a missing or malformed
     *         manifest (non-fatal: `trace verify` reports it).
     */
    bool load(const std::string &dir, std::string &error);

    /** Like load(), but fatal on failure (replay/CLI paths). */
    static TraceSet openOrDie(const std::string &dir);

    const std::string &directory() const { return dir; }
    const TraceMeta &metadata() const { return meta; }
    const std::vector<ShardInfo> &allShards() const { return shards; }

    /** Shards of @p thread, in stream order. */
    const std::vector<ShardInfo> &threadShards(unsigned thread) const;

    /** Committed-path length of @p thread. */
    std::uint64_t threadInsts(unsigned thread) const;

    /** Order-sensitive fingerprint over all shard CRCs. */
    std::uint32_t combinedCrc() const { return combineShardCrcs(shards); }

  private:
    std::string dir;
    TraceMeta meta;
    std::vector<ShardInfo> shards;
    std::vector<std::vector<ShardInfo>> byThread;
};

/**
 * DynInstSource that replays one recorded thread of a TraceSet.
 *
 * next() returns instructions from the one decoded block it holds and
 * decodes the block that holds the cursor whenever the cursor leaves
 * it, reading a shard file only when the block lies in another shard.
 * seekTo() (used by power-failure recovery and time-parallel segment
 * positioning) only moves the cursor, so a seek costs at most one
 * block decode, paid by the next() that follows it.
 *
 * Corrupt or unreadable shards are fatal here, on the replaying
 * thread — run `trace verify` for a diagnosis instead of trusting a
 * damaged replay.
 */
class TraceReplaySource : public DynInstSource
{
  public:
    TraceReplaySource(const TraceSet &set, unsigned thread);

    bool next(DynInst &out) override;
    void seekTo(std::uint64_t index) override;

  private:
    /** Decode the block holding @p index into `block`. */
    void decodeBlockAt(std::uint64_t index);

    const TraceSet &set;
    const unsigned thread;
    const std::uint64_t totalInsts;

    std::uint64_t cursor = 0;      ///< index the next next() returns
    std::uint64_t blockFirst = 0;  ///< stream index of block[0]
    std::vector<DynInst> block;    ///< the decoded block (reused)

    // The shard that holds `block`, parsed.
    int cachedShard = -1;
    std::vector<std::uint8_t> shardImage;
    ShardHeader shardHeader;
    ShardFooter shardFooter;
};

/** Outcome of verifyTrace(). */
struct VerifyResult
{
    bool ok = false;
    std::vector<std::string> errors;
    std::uint64_t totalInsts = 0;
    unsigned shardCount = 0;
    std::uint32_t combinedCrc = 0;
};

/**
 * Exhaustively check a trace directory: manifest syntax, shard
 * presence, header/footer structure, payload CRC32, and a full decode
 * of every block (record syntax + per-block instruction counts).
 * Never fatal — all problems land in VerifyResult::errors.
 */
VerifyResult verifyTrace(const std::string &dir);

} // namespace trace
} // namespace ppa

#endif // PPA_TRACE_READER_HH
