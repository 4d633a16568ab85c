/**
 * @file
 * Shared machinery of the benchmark: host spans around calls into the
 * simulator's public API, the per-run result (metrics, sample counts,
 * failures), the variants a traced run compares, and small statistics.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/histogram.hh"
#include "sim/stats.hh"
#include "sim/txn_tracer.hh"
#include "soc/soc.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** One host span: a named interval around a call, with its parent. */
struct Span
{
    int id = 0;
    int parent = -1; //!< -1 = top level
    std::string name;
    double start_s = 0; //!< seconds since the run began
    double end_s = 0;
};

/**
 * Host spans of one workload run, kept in memory and written out once
 * the run ends, so writing never lands inside a timed section. Every
 * span of the run shares the run id.
 */
class SpanLog
{
  public:
    explicit SpanLog(std::string run_id);

    /** Run @p f inside a span called @p name. @return its seconds. */
    template <class F>
    double
    timed(const std::string &name, F &&f)
    {
        const int id = open(name);
        f();
        return close(id);
    }

    const std::string &runId() const { return run_id_; }
    void writeJson(std::ostream &os) const;

  private:
    std::string run_id_;
    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> stack_;

    int open(const std::string &name);
    double close(int id);
};

/** Per-run knobs from the command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;        //!< shrunken inputs for the self-tests
    bool break_probe = false; //!< negative control: inject a probe fault
    std::string out_dir;      //!< where spans and traces are written
};

/** How a pass observes the machine. Only Baseline feeds host metrics. */
enum class Variant { Baseline, Traced, CheckerOff, WatchdogOff };

const char *name(Variant v);

/** Apply @p v to a machine configuration (tracing is attached later). */
void applyVariant(skipit::SoCConfig &cfg, Variant v);

/**
 * What a pass simulated. Everything here is simulated, so it must be
 * identical in every pass of one run at a fixed seed; diff() is the
 * observer-only gate between the reference and every other pass.
 */
struct SimResult
{
    std::uint64_t cycles = 0;   //!< simulated cycles of the timed call
    std::uint64_t executed = 0; //!< of those, cycles actually ticked
    std::uint64_t ops = 0;      //!< operations completed
    /** Cycles those ops ran in, when not all of cycles (0 = cycles). */
    std::uint64_t op_cycles = 0;
    skipit::Histogram latency;  //!< per-op latency, simulated cycles
    /** Machine counters, summed over every SoC of the pass. */
    std::map<std::string, std::uint64_t> counters;

    void addCounters(const skipit::Stats &stats);
    /** First simulated difference from @p o, or "" when identical.
     *  @p with_latency is false when one side has no latency samples. */
    std::string diff(const SimResult &o, bool with_latency) const;
};

/** The outcome of one run, printed by main. */
struct Result
{
    std::map<std::string, double> metrics;
    std::map<std::string, std::uint64_t> samples;
    /** Context printed beside the result, never judged. */
    std::map<std::string, double> info;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Count one failure and say why on stderr. */
    void fail(const std::string &why, std::uint64_t n = 1);
};

/**
 * Run @p sim until @p done, stopping every @p slice simulated cycles to
 * read the clock, and append each slice's host seconds to @p out. A
 * stop only evaluates a predicate, so this simulates exactly what one
 * runUntil(done) does, and every pass of a run cuts the same slices.
 * @return the cycles run
 */
skipit::Cycle runSliced(skipit::Simulator &sim,
                        const std::function<bool()> &done,
                        skipit::Cycle slice, skipit::Cycle max_cycles,
                        std::vector<double> &out);

/**
 * The host-time estimator: the fastest time seen for each slice of the
 * run call over the run's passes, summed. The host is shared, and its
 * speed swings by half in phases of seconds to minutes as other tenants
 * come and go; the median of a run's passes follows those phases, the
 * fastest slices far less.
 */
class SliceMin
{
  public:
    /** Fold in one pass. @return false when its slices do not line up
     *  with the earlier passes' (then it is ignored). */
    bool add(const std::vector<double> &slices);
    double total() const;
    std::size_t passes() const { return passes_; }

  private:
    std::vector<double> min_;
    std::size_t passes_ = 0;
};

/** Median of @p v (v must be non-empty). */
double median(std::vector<double> v);

/** Per-layer metrics read from a traced pass's stage histograms. */
void stageMetrics(const skipit::TxnTracer &t, Result &r);

/** Per-layer metrics read from machine counters, summed over harts. */
void counterMetrics(const SimResult &s, unsigned harts, Result &r);

/** The end-to-end simulated metrics of @p s, at host time @p wall_s. */
void simMetrics(const SimResult &s, double wall_s, Result &r);

/**
 * splitmix64 over (seed, salt): derives every input from the seed. The
 * same mix the YCSB generator uses, so the KV plans match runKv's.
 */
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
