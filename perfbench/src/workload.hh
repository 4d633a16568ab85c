/**
 * @file
 * The workload interface the run driver (main.cc) measures, and the
 * factories of the four workloads.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "harness.hh"

namespace perfbench {

/** Seconds of each part of one set-up, keyed by per-layer metric name. */
using SetupParts = std::map<std::string, double>;

/** What one measured pass produced. */
struct Pass
{
    /** Host seconds of the timed run call, slice by slice; every pass
     *  of a run cuts the same slices. */
    std::vector<double> slices;
    SimResult sim;        //!< what it simulated
    bool has_sim = false; //!< false when the run call is opaque

    /** Raw host seconds of the run call. */
    double
    seconds() const
    {
        double sum = 0;
        for (const double s : slices)
            sum += s;
        return sum;
    }
};

/**
 * One workload. Every pass builds its inputs from the seed alone, so all
 * passes of a run simulate the same thing; the driver checks that.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** One complete set-up whose products are discarded. */
    virtual SetupParts setUp(SpanLog &spans) = 0;

    /**
     * Untimed work before any timed pass, to warm the host. When it is a
     * full pass it returns what it simulated, per-op latencies included,
     * as the run's reference; otherwise the first timed pass is.
     */
    virtual std::optional<SimResult> warmUp(SpanLog &spans,
                                            Result &r) = 0;

    /** One pass under @p v. Traced passes record into @p tracer. */
    virtual Pass pass(Variant v, SpanLog &spans, Result &r,
                      skipit::TxnTracer *tracer) = 0;

    /**
     * The timed pass the end-to-end host metrics come from. Defaults to
     * the baseline pass; a workload whose public run call is opaque
     * overrides it.
     */
    virtual Pass
    timedPass(SpanLog &spans, Result &r)
    {
        return pass(Variant::Baseline, spans, r, nullptr);
    }

    /** Workload-specific cross-checks and metrics of a traced run,
     *  called once the reference's counter metrics are in @p r. */
    virtual void traceExtras(SpanLog &spans, Result &r,
                             const SimResult &ref) = 0;

    /** Hart count (per-layer counters are summed over harts). */
    virtual unsigned harts() const = 0;
};

std::unique_ptr<Workload> makeKv(const Options &opt, bool mix_a);
std::unique_ptr<Workload> makeFuzz(const Options &opt);
std::unique_ptr<Workload> makeCbo(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
