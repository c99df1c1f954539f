#include "trace/reader.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/logging.hh"

namespace ppa
{
namespace trace
{

namespace
{

bool
readFileBytes(const std::string &path, std::vector<std::uint8_t> &out)
{
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is)
        return false;
    std::streamsize size = is.tellg();
    is.seekg(0);
    out.resize(static_cast<std::size_t>(size));
    if (size > 0)
        is.read(reinterpret_cast<char *>(out.data()), size);
    return static_cast<bool>(is);
}

/** Payload byte count of a parsed shard image. */
std::size_t
payloadBytes(const std::vector<std::uint8_t> &image,
             const ShardFooter &footer)
{
    std::size_t footer_bytes = 16 + 8 * footer.blockOffsets.size();
    return image.size() - shardHeaderBytes - footer_bytes;
}

/**
 * Strict parse of one unsigned manifest field in @p base (10 or 16).
 * Unlike `istream >>` or std::stoul this never throws and rejects a
 * sign, whitespace, non-digit characters, trailing garbage and values
 * past @p out's range — a corrupt manifest must surface as a
 * diagnostic, not as an uncaught exception or a wrapped-around count.
 */
template <typename T>
bool
parseUnsignedField(const std::string &text, int base, T &out)
{
    if (text.empty())
        return false;
    for (char ch : text) {
        bool digit = (ch >= '0' && ch <= '9') ||
                     (base == 16 && ((ch >= 'a' && ch <= 'f') ||
                                     (ch >= 'A' && ch <= 'F')));
        if (!digit)
            return false;
    }
    errno = 0;
    unsigned long long v = std::strtoull(text.c_str(), nullptr, base);
    if (errno == ERANGE || v > std::numeric_limits<T>::max())
        return false;
    out = static_cast<T>(v);
    return true;
}

/** Instructions in block @p b of a shard with @p header. */
std::uint64_t
blockInstCount(const ShardHeader &header, std::size_t b)
{
    std::uint64_t first = static_cast<std::uint64_t>(b) * header.blockInsts;
    return std::min<std::uint64_t>(header.blockInsts,
                                   header.count - first);
}

} // namespace

// ---------------------------------------------------------------------
// TraceSet
// ---------------------------------------------------------------------

bool
TraceSet::load(const std::string &dir_, std::string &error)
{
    dir = dir_;
    shards.clear();
    byThread.clear();

    std::string path = dir + "/" + manifestFileName;
    std::ifstream is(path);
    if (!is) {
        error = "cannot open trace manifest '" + path + "'";
        return false;
    }

    auto failLoad = [&](const std::string &what) {
        error = "trace manifest '" + path + "': " + what;
        return false;
    };

    std::string line;
    if (!std::getline(is, line) || line != manifestHeaderLine)
        return failLoad("missing or unsupported header line (expected '" +
                        std::string(manifestHeaderLine) + "')");

    bool sawEnd = false;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        if (sawEnd)
            return failLoad("content after 'end' sentinel");
        std::istringstream ls(line);
        std::vector<std::string> f;
        for (std::string word; ls >> word;)
            f.push_back(std::move(word));
        const std::string key = f.empty() ? "" : f[0];
        // Every field but the key, the app name and a shard's file name
        // is an unsigned number; each line has exactly its fields.
        bool ok = true;
        std::size_t fields = 2;
        auto num = [&](std::size_t i, auto &out) {
            ok = ok && i < f.size() && parseUnsignedField(f[i], 10, out);
        };
        if (key == "app") {
            if (f.size() > 1)
                meta.app = f[1];
        } else if (key == "seed") {
            num(1, meta.seed);
        } else if (key == "threads") {
            num(1, meta.threads);
        } else if (key == "instsPerThread") {
            num(1, meta.instsPerThread);
        } else if (key == "shardInsts") {
            num(1, meta.shardInsts);
        } else if (key == "blockInsts") {
            num(1, meta.blockInsts);
        } else if (key == "shard") {
            ShardInfo s;
            ok = f.size() == 7;
            num(1, s.thread);
            num(2, s.seq);
            num(4, s.firstIndex);
            num(5, s.count);
            if (!ok)
                return failLoad("malformed shard line: '" + line + "'");
            s.file = f[3];
            if (!parseUnsignedField(f[6], 16, s.crc32))
                return failLoad("shard line has a malformed crc32 "
                                "field '" + f[6] + "'");
            shards.push_back(std::move(s));
            continue;
        } else if (key == "end") {
            sawEnd = true;
            fields = 1;
        } else {
            return failLoad("unknown key '" + key + "'");
        }
        if (!ok || f.size() != fields)
            return failLoad("malformed line: '" + line + "'");
    }
    if (!sawEnd)
        return failLoad("missing 'end' sentinel (truncated manifest)");
    if (meta.threads == 0 || meta.blockInsts == 0 ||
        meta.instsPerThread == 0)
        return failLoad("zero threads, blockInsts or instsPerThread");
    // Every thread has at least one shard; bound the allocation below.
    if (meta.threads > shards.size())
        return failLoad("threads " + std::to_string(meta.threads) +
                        " exceeds the " + std::to_string(shards.size()) +
                        " shard lines");

    byThread.assign(meta.threads, {});
    for (const ShardInfo &s : shards) {
        if (s.thread >= meta.threads)
            return failLoad("shard thread id out of range");
        byThread[s.thread].push_back(s);
    }
    for (unsigned t = 0; t < meta.threads; ++t) {
        std::uint64_t expectIndex = 0;
        unsigned expectSeq = 0;
        for (const ShardInfo &s : byThread[t]) {
            if (s.seq != expectSeq || s.firstIndex != expectIndex)
                return failLoad("thread " + std::to_string(t) +
                                " shards not contiguous");
            ++expectSeq;
            expectIndex += s.count;
        }
        if (expectIndex != meta.instsPerThread)
            return failLoad("thread " + std::to_string(t) + " has " +
                            std::to_string(expectIndex) +
                            " insts, manifest says " +
                            std::to_string(meta.instsPerThread));
    }
    error.clear();
    return true;
}

TraceSet
TraceSet::openOrDie(const std::string &dir)
{
    TraceSet set;
    std::string error;
    if (!set.load(dir, error))
        fatal(error);
    return set;
}

const std::vector<ShardInfo> &
TraceSet::threadShards(unsigned thread) const
{
    PPA_ASSERT(thread < byThread.size(), "thread ", thread,
               " out of range");
    return byThread[thread];
}

std::uint64_t
TraceSet::threadInsts(unsigned thread) const
{
    std::uint64_t n = 0;
    for (const ShardInfo &s : threadShards(thread))
        n += s.count;
    return n;
}

// ---------------------------------------------------------------------
// TraceReplaySource
// ---------------------------------------------------------------------

TraceReplaySource::TraceReplaySource(const TraceSet &set_, unsigned thread_)
    : set(set_), thread(thread_), totalInsts(set_.threadInsts(thread_))
{
}

void
TraceReplaySource::decodeBlockAt(std::uint64_t index)
{
    const std::vector<ShardInfo> &list = set.threadShards(thread);
    PPA_ASSERT(index < totalInsts, "decode past end of trace");

    // Shards are contiguous; find the one covering `index`, preferring
    // the cached shard (replay is overwhelmingly sequential).
    int si = -1;
    if (cachedShard >= 0) {
        const ShardInfo &c = list[cachedShard];
        if (index >= c.firstIndex && index < c.firstIndex + c.count)
            si = cachedShard;
    }
    if (si < 0) {
        for (std::size_t i = 0; i < list.size(); ++i) {
            if (index >= list[i].firstIndex &&
                index < list[i].firstIndex + list[i].count) {
                si = static_cast<int>(i);
                break;
            }
        }
    }
    PPA_ASSERT(si >= 0, "no shard covers index ", index);

    if (si != cachedShard) {
        const ShardInfo &s = list[si];
        std::string path = set.directory() + "/" + s.file;
        if (!readFileBytes(path, shardImage))
            fatal("cannot read trace shard '", path, "'");
        std::string error;
        if (!parseShardImage(shardImage, shardHeader, shardFooter, error))
            fatal("trace shard '", path, "': ", error,
                  " (run `ppa_cli trace verify`)");
        if (shardHeader.firstIndex != s.firstIndex ||
            shardHeader.count != s.count) {
            fatal("trace shard '", path,
                  "' disagrees with the manifest about its range");
        }
        cachedShard = si;
    }

    const ShardInfo &s = list[si];
    std::size_t b = static_cast<std::size_t>(
        (index - s.firstIndex) / shardHeader.blockInsts);
    std::size_t begin, end;
    shardBlockRange(shardHeader, shardFooter, shardImage, b, begin, end);

    blockFirst = s.firstIndex +
                 static_cast<std::uint64_t>(b) * shardHeader.blockInsts;
    block.clear();
    BlockDecoder dec(shardImage.data() + begin, end - begin);
    DynInst inst;
    while (dec.next(inst))
        block.push_back(inst);
    if (!dec.error().empty()) {
        fatal("trace shard '", s.file, "' block ", b, ": ", dec.error(),
              " (run `ppa_cli trace verify`)");
    }
    std::uint64_t expect = blockInstCount(shardHeader, b);
    if (block.size() != expect) {
        fatal("trace shard '", s.file, "' block ", b, " decoded ",
              block.size(), " records, expected ", expect);
    }
}

bool
TraceReplaySource::next(DynInst &out)
{
    if (cursor >= totalInsts)
        return false;
    if (cursor < blockFirst || cursor - blockFirst >= block.size())
        decodeBlockAt(cursor);
    out = block[static_cast<std::size_t>(cursor - blockFirst)];
    out.index = cursor++;
    return true;
}

void
TraceReplaySource::seekTo(std::uint64_t index)
{
    cursor = index;
}

// ---------------------------------------------------------------------
// verifyTrace
// ---------------------------------------------------------------------

VerifyResult
verifyTrace(const std::string &dir)
{
    VerifyResult r;
    TraceSet set;
    std::string error;
    if (!set.load(dir, error)) {
        r.errors.push_back(error);
        return r;
    }

    for (const ShardInfo &s : set.allShards()) {
        auto shardError = [&](const std::string &what) {
            r.errors.push_back(s.file + ": " + what);
        };
        std::string path = dir + "/" + s.file;
        std::vector<std::uint8_t> image;
        if (!readFileBytes(path, image)) {
            shardError("listed in the manifest but unreadable");
            continue;
        }
        ShardHeader header;
        ShardFooter footer;
        if (!parseShardImage(image, header, footer, error)) {
            shardError(error);
            continue;
        }
        if (header.firstIndex != s.firstIndex || header.count != s.count) {
            shardError("header range disagrees with the manifest");
            continue;
        }
        if (header.blockInsts != set.metadata().blockInsts) {
            shardError("blockInsts disagrees with the manifest");
            continue;
        }

        std::uint32_t crc = binfmt::crc32(image.data() + shardHeaderBytes,
                                          payloadBytes(image, footer));
        if (crc != footer.payloadCrc) {
            shardError("payload CRC mismatch (corrupted shard)");
            continue;
        }
        if (crc != s.crc32) {
            shardError("payload CRC disagrees with the manifest");
            continue;
        }

        bool decodeOk = true;
        for (std::size_t b = 0; b < footer.blockOffsets.size(); ++b) {
            std::size_t begin, end;
            shardBlockRange(header, footer, image, b, begin, end);
            BlockDecoder dec(image.data() + begin, end - begin);
            DynInst inst;
            std::uint64_t n = 0;
            while (dec.next(inst))
                ++n;
            if (!dec.error().empty()) {
                shardError("block " + std::to_string(b) + ": " +
                           dec.error());
                decodeOk = false;
                break;
            }
            if (n != blockInstCount(header, b)) {
                shardError("block " + std::to_string(b) + " decoded " +
                           std::to_string(n) + " records, expected " +
                           std::to_string(blockInstCount(header, b)));
                decodeOk = false;
                break;
            }
        }
        if (decodeOk)
            r.totalInsts += s.count;
    }

    r.shardCount = static_cast<unsigned>(set.allShards().size());
    r.combinedCrc = set.combinedCrc();
    r.ok = r.errors.empty();
    return r;
}

} // namespace trace
} // namespace ppa
