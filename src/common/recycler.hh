/**
 * @file
 * A small per-thread stack of freed objects.
 *
 * The crash checkers and the serving study build thousands of short
 * runs, and each run used to allocate and clear megabytes of storage
 * that it then barely touched. A type that keeps its storage in a
 * Recycler hands it back when it is destroyed, and the next object of
 * the same kind on the same thread takes it instead of allocating and
 * clearing new storage. The user must make a taken object behave like
 * a fresh one (see LineArray and serve::RequestSource).
 *
 * Each thread has its own stack, so no lock is needed, and at most
 * @p Depth objects are kept per thread: a kept object is memory that
 * no run uses, so a deeper stack only grows the resident set.
 */

#ifndef PPA_COMMON_RECYCLER_HH
#define PPA_COMMON_RECYCLER_HH

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace ppa
{

template <class T, std::size_t Depth>
class Recycler
{
  public:
    /** The most recently kept object that @p match accepts, if any. */
    template <class Match>
    static std::optional<T>
    take(Match match)
    {
        if (closed())
            return std::nullopt;
        std::vector<T> &kept = stack();
        for (std::size_t i = kept.size(); i-- > 0;) {
            if (match(kept[i])) {
                std::optional<T> obj(std::move(kept[i]));
                kept.erase(kept.begin() + static_cast<std::ptrdiff_t>(i));
                return obj;
            }
        }
        return std::nullopt;
    }

    /** Keep @p obj for a later take(); it is dropped instead when
     *  Depth objects are kept already. */
    static void
    give(T &&obj)
    {
        if (!closed() && stack().size() < Depth)
            stack().push_back(std::move(obj));
    }

  private:
    /** Set when this thread's stack is destroyed (thread exit), so an
     *  object freed after that is simply dropped. */
    static bool &
    closed()
    {
        thread_local bool flag = false;
        return flag;
    }

    static std::vector<T> &
    stack()
    {
        struct Stack
        {
            std::vector<T> kept;
            ~Stack() { closed() = true; }
        };
        thread_local Stack s;
        return s.kept;
    }
};

} // namespace ppa

#endif // PPA_COMMON_RECYCLER_HH
