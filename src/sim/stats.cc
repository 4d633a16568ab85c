#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "logging.hh"

namespace skipit {

double
Distribution::mean() const
{
    SKIPIT_ASSERT(!samples_.empty(), "mean of empty distribution");
    double s = 0;
    for (double v : samples_)
        s += v;
    return s / static_cast<double>(samples_.size());
}

double
Distribution::percentile(double p) const
{
    SKIPIT_ASSERT(p >= 0 && p <= 100, "percentile out of range");
    if (samples_.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double
Distribution::median() const
{
    return percentile(50.0);
}

double
Distribution::stddev() const
{
    SKIPIT_ASSERT(!samples_.empty(), "stddev of empty distribution");
    const double m = mean();
    double acc = 0;
    for (double v : samples_)
        acc += (v - m) * (v - m);
    return std::sqrt(acc / static_cast<double>(samples_.size()));
}

double
Distribution::min() const
{
    SKIPIT_ASSERT(!samples_.empty(), "min of empty distribution");
    return *std::min_element(samples_.begin(), samples_.end());
}

double
Distribution::max() const
{
    SKIPIT_ASSERT(!samples_.empty(), "max of empty distribution");
    return *std::max_element(samples_.begin(), samples_.end());
}

void
Stats::dump(std::ostream &os) const
{
    for (const auto &[name, value] : counters_)
        os << name << " = " << value << "\n";
}

std::vector<std::pair<std::string, std::uint64_t>>
Stats::byPrefix(const std::string &prefix) const
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (auto it = counters_.lower_bound(prefix); it != counters_.end();
         ++it) {
        if (it->first.compare(0, prefix.size(), prefix) != 0)
            break;
        out.emplace_back(it->first, it->second);
    }
    return out;
}

std::uint64_t
Stats::sumPrefix(const std::string &prefix) const
{
    std::uint64_t sum = 0;
    for (const auto &[name, value] : byPrefix(prefix))
        sum += value;
    return sum;
}

void
Stats::dumpPrefix(std::ostream &os, const std::string &prefix) const
{
    for (const auto &[name, value] : byPrefix(prefix))
        os << name << " = " << value << "\n";
}

} // namespace skipit
