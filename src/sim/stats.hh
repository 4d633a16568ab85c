/**
 * @file
 * Lightweight statistics: named counters and sample distributions.
 *
 * The paper reports medians and standard deviations of repeated
 * microbenchmarks (§7.1), so Distribution keeps raw samples and can produce
 * median / mean / stddev / percentiles.
 */

#ifndef SKIPIT_SIM_STATS_HH
#define SKIPIT_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace skipit {

/** A sampled value distribution with summary statistics. */
class Distribution
{
  public:
    void add(double v) { samples_.push_back(v); }
    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    double mean() const;
    /** Median of the samples; NaN when the distribution is empty. */
    double median() const;
    double stddev() const;
    /**
     * Linearly interpolated percentile of the samples.
     * @param p percentile in [0,100]
     * @return NaN when the distribution is empty
     */
    double percentile(double p) const;
    double min() const;
    double max() const;

    const std::vector<double> &samples() const { return samples_; }
    void clear() { samples_.clear(); }

  private:
    std::vector<double> samples_;
};

/**
 * A registry of named counters owned by one simulated machine.
 *
 * Components bump counters through operator[]; tests and benches read them
 * back by name, and dump() prints everything for debugging.
 */
class Stats
{
  public:
    /** Get (creating if absent) the counter called @p name. */
    std::uint64_t &operator[](const std::string &name)
    {
        return counters_[name];
    }

    /** Read a counter; returns 0 when it was never touched. */
    std::uint64_t
    get(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second;
    }

    void dump(std::ostream &os) const;
    void clear() { counters_.clear(); }

    const std::map<std::string, std::uint64_t> &all() const
    {
        return counters_;
    }

    /// @name Hierarchical queries
    ///
    /// Counter names are dot-separated component paths ("core0.l1d.fshr
    /// allocations" live under "l1.0.", DRAM traffic under "dram.", …),
    /// so a prefix selects one component subtree.
    /// @{

    /** All counters whose name starts with @p prefix, in name order. */
    std::vector<std::pair<std::string, std::uint64_t>>
    byPrefix(const std::string &prefix) const;

    /** Sum of every counter whose name starts with @p prefix. */
    std::uint64_t sumPrefix(const std::string &prefix) const;

    /** dump() restricted to counters under @p prefix. */
    void dumpPrefix(std::ostream &os, const std::string &prefix) const;
    /// @}

  private:
    std::map<std::string, std::uint64_t> counters_;
};

} // namespace skipit

#endif // SKIPIT_SIM_STATS_HH
