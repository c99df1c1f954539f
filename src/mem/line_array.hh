/**
 * @file
 * Epoch-tagged tag-array storage shared by Cache and DramCache.
 *
 * A line is valid iff its epoch equals the array's epoch, so dropping
 * every line (a power failure) is one increment instead of a pass over
 * the array. When the epoch wraps, the array is cleared once, so a
 * line stamped long ago can never look valid again.
 *
 * Freed arrays go to a per-thread Recycler. A new array of the same
 * size takes one and bumps its epoch, instead of allocating and
 * zero-filling megabytes that a short crash run never touches. Every
 * line of a freed array has an epoch at or below the array's epoch, so
 * after the bump none of them is valid: a reused array reads exactly
 * like a fresh one to any reader that checks valid() before it looks
 * at the other fields of a line.
 */

#ifndef PPA_MEM_LINE_ARRAY_HH
#define PPA_MEM_LINE_ARRAY_HH

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/recycler.hh"

namespace ppa
{

/**
 * @p count lines of @p Line, a struct with an unsigned `epoch` field
 * whose zero value is "never valid". At most @p PoolDepth freed arrays
 * of this Line type are kept per thread.
 */
template <class Line, std::size_t PoolDepth>
class LineArray
{
  public:
    using Epoch = decltype(Line::epoch);
    static_assert(std::is_unsigned_v<Epoch>, "epoch must be unsigned");

    explicit LineArray(std::size_t count)
    {
        auto freed = Pool::take([count](const Freed &f) {
            return f.lines.size() == count;
        });
        if (!freed) {
            lines.assign(count, Line{});
            return;
        }
        lines = std::move(freed->lines);
        epoch = freed->epoch;
        invalidateAll();
    }

    ~LineArray() { Pool::give({std::move(lines), epoch}); }

    LineArray(const LineArray &) = delete;
    LineArray &operator=(const LineArray &) = delete;

    Line &operator[](std::size_t i) { return lines[i]; }
    const Line &operator[](std::size_t i) const { return lines[i]; }
    std::size_t size() const { return lines.size(); }

    bool valid(const Line &line) const { return line.epoch == epoch; }
    /** Make @p line valid; the caller sets every other field. */
    void validate(Line &line) const { line.epoch = epoch; }

    /** Drop every line. */
    void
    invalidateAll()
    {
        if (++epoch == 0) {
            lines.assign(lines.size(), Line{});
            epoch = 1;
        }
    }

  private:
    struct Freed
    {
        std::vector<Line> lines;
        Epoch epoch;
    };
    using Pool = Recycler<Freed, PoolDepth>;

    std::vector<Line> lines;
    Epoch epoch = 1;
};

} // namespace ppa

#endif // PPA_MEM_LINE_ARRAY_HH
