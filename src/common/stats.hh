/**
 * @file
 * Lightweight statistics primitives.
 *
 * Counters, scalar averages, histograms, and per-cycle CDF samplers in
 * the spirit of gem5's stats package, but with just the features the
 * PPA evaluation needs (notably the free-register CDFs of Figure 5).
 */

#ifndef PPA_COMMON_STATS_HH
#define PPA_COMMON_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace ppa
{
namespace stats
{

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { val += n; }
    std::uint64_t value() const { return val; }
    void reset() { val = 0; }

  private:
    std::uint64_t val = 0;
};

/** Running mean / min / max of a scalar sample stream. */
class Average
{
  public:
    void
    sample(double v)
    {
        sum += v;
        ++n;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }

    double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }
    double total() const { return sum; }
    double min() const { return n ? lo : 0.0; }
    double max() const { return n ? hi : 0.0; }
    std::uint64_t count() const { return n; }

    void
    reset()
    {
        sum = 0.0;
        n = 0;
        lo = 1e300;
        hi = -1e300;
    }

  private:
    double sum = 0.0;
    std::uint64_t n = 0;
    double lo = 1e300;
    double hi = -1e300;
};

/**
 * An integer-valued histogram with unit-width bins over [0, maxValue].
 *
 * Out-of-range observations are tracked in a separate overflow count
 * rather than silently folded into the top bin (which would skew the
 * distribution summaries); cdf(), percentile(), and mean() summarize
 * the in-range distribution. This is how Figure 5's free-register
 * CDFs are collected: the rename stage samples the free-list
 * occupancy every cycle.
 */
class Histogram
{
  public:
    Histogram() = default;

    /** Construct with bins covering [0, max_value]. */
    explicit Histogram(std::size_t max_value) : bins(max_value + 1, 0) {}

    /**
     * Record @p n observations of @p v. Values above maxValue() are
     * counted as overflow, not folded into the top bin.
     */
    void
    sample(std::size_t v, std::uint64_t n = 1)
    {
        PPA_ASSERT(!bins.empty(), "histogram not sized");
        if (v >= bins.size()) {
            overflow += n;
            return;
        }
        bins[v] += n;
        total += n;
    }

    /** Number of in-range observations. */
    std::uint64_t count() const { return total; }

    /** Number of observations above maxValue() (not in any bin). */
    std::uint64_t overflowCount() const { return overflow; }
    std::size_t maxValue() const { return bins.empty() ? 0 : bins.size() - 1; }

    /** Fraction of samples <= @p v. */
    double
    cdf(std::size_t v) const
    {
        if (total == 0)
            return 0.0;
        if (v >= bins.size())
            v = bins.size() - 1;
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i <= v; ++i)
            acc += bins[i];
        return static_cast<double>(acc) / static_cast<double>(total);
    }

    /** Smallest value whose CDF is >= @p frac (frac in [0,1]). */
    std::size_t
    percentile(double frac) const
    {
        if (total == 0)
            return 0;
        // Rank of the requested order statistic, in samples. Rounding
        // up (rather than truncating) keeps the result consistent
        // with cdf(): truncation would let `acc >= target` accept a
        // bin whose cumulative fraction is still below frac — most
        // visibly at frac 0, where an empty bin 0 satisfied
        // `0 >= 0`. The clamp to >= 1 makes percentile(0) the
        // smallest observed value.
        auto target = static_cast<std::uint64_t>(
            std::ceil(frac * static_cast<double>(total)));
        target = std::max<std::uint64_t>(target, 1);
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < bins.size(); ++i) {
            acc += bins[i];
            if (acc >= target)
                return i;
        }
        return bins.size() - 1;
    }

    // Named quantiles, including the serving-tail ones (p99.9,
    // p99.99). All are the ceil-rank order statistic above — exact,
    // not interpolated — so p9999() of < 10000 samples degenerates
    // toward max(), never past it.
    std::size_t p50() const { return percentile(0.50); }
    std::size_t p95() const { return percentile(0.95); }
    std::size_t p99() const { return percentile(0.99); }
    std::size_t p999() const { return percentile(0.999); }
    std::size_t p9999() const { return percentile(0.9999); }

    /** Mean of the observed values. */
    double
    mean() const
    {
        if (total == 0)
            return 0.0;
        double s = 0.0;
        for (std::size_t i = 0; i < bins.size(); ++i)
            s += static_cast<double>(i) * static_cast<double>(bins[i]);
        return s / static_cast<double>(total);
    }

    /** Full CDF as (value, fraction<=value) pairs for plotting. */
    std::vector<std::pair<std::size_t, double>>
    cdfSeries() const
    {
        std::vector<std::pair<std::size_t, double>> out;
        if (total == 0)
            return out;
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < bins.size(); ++i) {
            acc += bins[i];
            out.emplace_back(
                i, static_cast<double>(acc) / static_cast<double>(total));
        }
        return out;
    }

    /** Raw per-bin sample counts (bin i counts observations of i). */
    const std::vector<std::uint64_t> &binCounts() const { return bins; }

    /** Rebuild a histogram from serialized bin counts. */
    static Histogram
    fromBins(std::vector<std::uint64_t> counts,
             std::uint64_t overflow_count = 0)
    {
        Histogram h;
        h.bins = std::move(counts);
        h.total = 0;
        for (std::uint64_t c : h.bins)
            h.total += c;
        h.overflow = overflow_count;
        return h;
    }

    void
    merge(const Histogram &other)
    {
        PPA_ASSERT(bins.size() == other.bins.size(),
                   "histogram size mismatch in merge");
        for (std::size_t i = 0; i < bins.size(); ++i)
            bins[i] += other.bins[i];
        total += other.total;
        overflow += other.overflow;
    }

  private:
    std::vector<std::uint64_t> bins;
    std::uint64_t total = 0;
    std::uint64_t overflow = 0;
};

/**
 * A named bag of counters and averages so that pipeline components can
 * register and dump statistics uniformly.
 */
class Group
{
  public:
    Counter &counter(const std::string &name) { return counters[name]; }
    Average &average(const std::string &name) { return averages[name]; }

    std::uint64_t
    counterValue(const std::string &name) const
    {
        auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second.value();
    }

    double
    averageValue(const std::string &name) const
    {
        auto it = averages.find(name);
        return it == averages.end() ? 0.0 : it->second.mean();
    }

    const std::map<std::string, Counter> &allCounters() const
    {
        return counters;
    }
    const std::map<std::string, Average> &allAverages() const
    {
        return averages;
    }

  private:
    std::map<std::string, Counter> counters;
    std::map<std::string, Average> averages;
};

} // namespace stats
} // namespace ppa

#endif // PPA_COMMON_STATS_HH
