/**
 * @file
 * cbo-redundant: the paper's Fig 13 traffic. Eight harts each dirty a
 * disjoint region, then run one real CBO.CLEAN pass, ten redundant
 * passes and one fence. It is the purest skip-bit path and the heaviest
 * checker load, and the benchmark owns the SoC, so every layer of the
 * machine can be observed from outside.
 */

#include <cstring>

#include "workload.hh"
#include "workloads/workloads.hh"

namespace perfbench {

namespace {

using namespace skipit;

constexpr unsigned harts_n = 8;
constexpr unsigned redundant_passes = 10;
constexpr Cycle max_cycles = 100'000'000;

/** The machine and its programs right before the timed phase. */
struct CboMachine
{
    std::unique_ptr<SoC> soc;
    std::vector<Program> warm, meas;
};

class CboWorkload : public Workload
{
  public:
    explicit CboWorkload(const Options &opt)
        : lines_(opt.tiny ? 8 : 96), out_dir_(opt.out_dir),
          run_id_(opt.workload + "-seed" + std::to_string(opt.seed))
    {
        // The seed shifts each hart's region by a few lines, so seeds
        // differ in the L1 sets they load but not in the work done.
        for (unsigned t = 0; t < harts_n; ++t)
            bases_.push_back(workloads::region_base +
                             t * workloads::thread_stride +
                             derive(opt.seed, 0xcb0 + t) % 64 * line_bytes);
    }

    unsigned harts() const override { return harts_n; }

    SetupParts
    setUp(SpanLog &spans) override
    {
        CboMachine m;
        return build(m, Variant::Baseline, spans);
    }

    std::optional<SimResult>
    warmUp(SpanLog &spans, Result &r) override
    {
        // A full pass, traced: the per-op latency is the LSU window,
        // which only a tracer sees.
        TxnTracer tracer(/*keep_events=*/false);
        Pass p = run(Variant::Traced, spans, r, &tracer, /*sliced=*/true);
        if (const Histogram *h = tracer.histogram("lsu.window"))
            p.sim.latency = *h;
        return p.sim;
    }

    Pass
    pass(Variant v, SpanLog &spans, Result &r,
         TxnTracer *tracer) override
    {
        return run(v, spans, r, tracer, /*sliced=*/true);
    }

    void
    traceExtras(SpanLog &spans, Result &r, const SimResult &ref) override
    {
        // One plain SoC::runToCompletion pass with the full event log,
        // exported as a Chrome trace (spans of one memory op share its
        // txn id). It must simulate what the sliced passes did.
        TxnTracer tracer(/*keep_events=*/true);
        const Pass p =
            run(Variant::Traced, spans, r, &tracer, /*sliced=*/false);
        const std::string diff = p.sim.diff(ref, false);
        if (!diff.empty())
            r.fail("the plain traced pass simulated something else: " +
                   diff);
        tracer.writeChromeTraceFile(out_dir_ + "/" + run_id_ +
                                    ".chrome_trace.json");
    }

  private:
    unsigned lines_; //!< lines per hart
    std::vector<Addr> bases_;
    std::string out_dir_;
    std::string run_id_;

    /** Simulated cycles per timed slice: tens of host milliseconds. */
    static constexpr Cycle slice_cycles = 250;

    Pass
    run(Variant v, SpanLog &spans, Result &r, TxnTracer *tracer,
        bool sliced)
    {
        Pass p;
        CboMachine m;
        build(m, v, spans);
        SoC &soc = *m.soc;
        // Simulated warm-up, untimed: dirty every region first.
        spans.timed("warm:SoC::runToQuiescence", [&] {
            soc.setPrograms(m.warm);
            soc.runToQuiescence();
            soc.setPrograms(m.meas);
        });
        if (tracer != nullptr)
            soc.sim().probes().attach(*tracer);
        // SoC::runToCompletion's condition, run in timed slices.
        const auto done = [&] {
            for (unsigned t = 0; t < harts_n; ++t) {
                if (!soc.hart(t).done())
                    return false;
            }
            return true;
        };
        const Cycle skipped0 = soc.sim().skippedCycles();
        spans.timed("SoC::runToCompletion", [&] {
            p.sim.cycles =
                sliced ? runSliced(soc.sim(), done, slice_cycles,
                                   max_cycles, p.slices)
                       : soc.runToCompletion(max_cycles);
        });
        p.sim.executed =
            p.sim.cycles - (soc.sim().skippedCycles() - skipped0);
        for (const Program &prog : m.meas)
            p.sim.ops += prog.size();
        p.has_sim = true;
        verify(soc, r);
        if (tracer != nullptr)
            soc.sim().probes().detach(*tracer);
        p.sim.addCounters(soc.stats());
        return p;
    }

    SetupParts
    build(CboMachine &m, Variant v, SpanLog &spans) const
    {
        SetupParts t;
        t["setup.trace_gen_s"] = spans.timed("workloads::dirtyRegion", [&] {
            for (const Addr base : bases_) {
                m.warm.push_back(workloads::dirtyRegion(base, lines_));
                Program p = workloads::dirtyRegion(base, lines_);
                const Program wb = workloads::writebackRegion(
                    base, lines_, /*flush=*/false, 1 + redundant_passes);
                p.insert(p.end(), wb.begin(), wb.end());
                m.meas.push_back(std::move(p));
            }
        });
        SoCConfig cfg;
        cfg.cores = harts_n;
        cfg.withSkipIt(true);
        applyVariant(cfg, v);
        t["setup.soc_build_s"] = spans.timed("SoC::SoC", [&] {
            m.soc = std::make_unique<SoC>(cfg);
        });
        return t;
    }

    /**
     * The correctness gate: the checker latched nothing (including a full
     * sweep once the machine drains), and the real clean pass persisted
     * every line's stored word.
     */
    void
    verify(SoC &soc, Result &r) const
    {
        r.attempted += static_cast<std::uint64_t>(harts_n) * lines_;
        for (unsigned t = 0; t < harts_n; ++t) {
            if (!soc.hart(t).done())
                r.fail("hart " + std::to_string(t) + " did not finish",
                       lines_);
        }
        soc.runToQuiescence();
        soc.checker().checkNow();
        if (!soc.checker().clean())
            r.fail("checker latched '" +
                       soc.checker().violations().front().invariant + "'",
                   soc.checker().violations().size());
        std::uint64_t lost = 0;
        for (const Addr base : bases_) {
            for (unsigned i = 0; i < lines_; ++i) {
                // dirtyRegion stores the word i + 1 at the head of line i.
                const LineData line =
                    soc.dram().persistLine(base + i * line_bytes);
                std::uint64_t word = 0;
                std::memcpy(&word, line.data(), sizeof word);
                if (word != i + 1)
                    ++lost;
            }
        }
        if (lost != 0)
            r.fail(std::to_string(lost) +
                       " cleaned lines did not reach the persist domain",
                   lost);
    }
};

} // namespace

std::unique_ptr<Workload>
makeCbo(const Options &opt)
{
    return std::make_unique<CboWorkload>(opt);
}

} // namespace perfbench
