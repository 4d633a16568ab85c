/**
 * @file
 * fuzz-crash: a batch of workloads::runFuzzSeed seeds, each one clean
 * run plus crash re-runs audited by the durability oracle and the
 * word-level crash oracle. Many short machine lifetimes under TileLink
 * jitter; it never touches the KV store.
 *
 * runFuzzSeed is the timed call, and it does not say what it simulated,
 * so an untimed replica of its runs (same configurations, same crash
 * points) gives the simulated metrics and the per-layer numbers.
 */

#include "workload.hh"
#include "workloads/fuzz.hh"

namespace perfbench {

namespace {

using namespace skipit;

/** The crash-point derivation of workloads::runFuzzSeed. */
Cycle
crashPoint(std::uint64_t seed, unsigned k, Cycle clean_cycles)
{
    const std::uint64_t h = seed * 0x9e3779b97f4a7c15ULL + (0xc7a5 + k) + 1;
    return 1 + h % std::max<Cycle>(clean_cycles, 1);
}

class FuzzWorkload : public Workload
{
  public:
    explicit FuzzWorkload(const Options &opt)
    {
        spec_.harts = 2;
        spec_.ops = 120;
        spec_.lines = 6;
        spec_.jitter = true;
        spec_.crash_points = 4;
        if (opt.break_probe) {
            // The negative control: the injected probe fault, plus the
            // geometry that exposes it (one FSHR keeps flush-queue
            // entries queued long enough to be probed).
            spec_.break_probe_invalidate = true;
            spec_.fshrs = 1;
            spec_.flush_queue_depth = 8;
        }
        // The batch's seeds are drawn, not consecutive: runFuzzSeed
        // seeds its generators with seed * constant + salt, so seed s + 1
        // replays seed s's random stream shifted by one draw, and a
        // consecutive batch is one program family that never averages.
        // Single seeds differ several-fold in length, so the batch is
        // filled to a fixed simulated length instead of a fixed count:
        // every --seed then asks for the same work, and a short batch
        // leaves room for many passes, whose per-seed minima ride out
        // the host's slow moments.
        Cycle simulated = 0;
        for (unsigned i = 0; opt.tiny ? i < 4 : simulated < batch_cycles;
             ++i) {
            seeds_.push_back(derive(opt.seed, 0xf22 + i) >> 16);
            programs_.push_back(
                workloads::generateFuzzPrograms(spec_, seeds_.back()));
            if (!opt.tiny)
                simulated += seedCycles(seeds_.back(), programs_.back());
        }
    }

    unsigned harts() const override { return spec_.harts; }

    SetupParts
    setUp(SpanLog &spans) override
    {
        SetupParts t;
        std::vector<std::vector<Program>> programs;
        t["fuzz.generate_s"] =
            spans.timed("workloads::generateFuzzPrograms", [&] {
                for (const std::uint64_t seed : seeds_)
                    programs.push_back(
                        workloads::generateFuzzPrograms(spec_, seed));
            });
        // Each clean run's machine, built and loaded one at a time.
        for (std::size_t i = 0; i < seeds_.size(); ++i) {
            std::unique_ptr<SoC> soc;
            t["setup.soc_build_s"] += spans.timed("SoC::SoC", [&] {
                soc = std::make_unique<SoC>(
                    config(cleanSpec(), seeds_[i], Variant::Baseline));
            });
            t["setup.dram_load_s"] += spans.timed("SoC::setPrograms", [&] {
                soc->setPrograms(programs[i]);
            });
        }
        return t;
    }

    std::optional<SimResult>
    warmUp(SpanLog &spans, Result &r) override
    {
        // A full replica pass, traced: the per-op latency is the LSU
        // window, which only a tracer sees.
        r.samples["fuzz.batch_seeds"] = seeds_.size();
        TxnTracer tracer(/*keep_events=*/false);
        Pass p = pass(Variant::Traced, spans, r, &tracer);
        if (const Histogram *h = tracer.histogram("lsu.window"))
            p.sim.latency = *h;
        return p.sim;
    }

    /** The replica: the clean run and the crash runs of every seed. */
    Pass
    pass(Variant v, SpanLog &spans, Result &,
         TxnTracer *tracer) override
    {
        Pass p;
        clean_cycles_.clear();
        for (std::size_t i = 0; i < seeds_.size(); ++i) {
            p.slices.push_back(spans.timed("replica", [&] {
                // Only clean runs complete every op, so only they feed
                // the per-op numbers.
                SoC clean(config(cleanSpec(), seeds_[i], v));
                clean.setPrograms(programs_[i]);
                if (tracer != nullptr)
                    clean.sim().probes().attach(*tracer);
                const Cycle t = settle(clean, p.sim);
                if (tracer != nullptr)
                    clean.sim().probes().detach(*tracer);
                clean_cycles_.push_back(t);
                p.sim.op_cycles += t;
                for (const Program &prog : programs_[i])
                    p.sim.ops += prog.size();
                for (unsigned k = 0; k < spec_.crash_points; ++k) {
                    SoC crash(
                        config(crashSpec(seeds_[i], k, t), seeds_[i], v));
                    crash.setPrograms(programs_[i]);
                    settle(crash, p.sim);
                }
            }));
        }
        p.has_sim = true;
        return p;
    }

    /** The timed call: runFuzzSeed over the batch. */
    Pass
    timedPass(SpanLog &spans, Result &r) override
    {
        Pass p;
        std::vector<std::optional<workloads::FuzzFailure>> verdicts;
        for (const std::uint64_t seed : seeds_) {
            p.slices.push_back(spans.timed("workloads::runFuzzSeed", [&] {
                verdicts.push_back(workloads::runFuzzSeed(spec_, seed));
            }));
        }
        judge(verdicts, r);
        return p;
    }

    /** Time the clean runs and the crash runs of the batch apart. */
    void
    traceExtras(SpanLog &spans, Result &r, const SimResult &) override
    {
        double clean_s = 0, crash_s = 0;
        std::vector<std::optional<workloads::FuzzFailure>> verdicts;
        for (std::size_t i = 0; i < seeds_.size(); ++i) {
            const std::uint64_t seed = seeds_[i];
            std::optional<workloads::FuzzFailure> f;
            clean_s += spans.timed("workloads::runFuzzPrograms", [&] {
                f = workloads::runFuzzPrograms(cleanSpec(), seed,
                                               programs_[i]);
            });
            for (unsigned k = 0; k < spec_.crash_points && !f; ++k) {
                crash_s += spans.timed("workloads::runFuzzPrograms:crash", [&] {
                    f = workloads::runFuzzPrograms(
                        crashSpec(seed, k, clean_cycles_[i]), seed,
                        programs_[i]);
                });
            }
            verdicts.push_back(std::move(f));
        }
        judge(verdicts, r);
        r.metrics["fuzz.clean_run_s"] = clean_s;
        r.metrics["fuzz.crash_run_s"] = crash_s;
    }

  private:
    /** Simulated cycles of clean and crash runs that fill a batch. */
    static constexpr Cycle batch_cycles = 300'000;

    workloads::FuzzSpec spec_;
    std::vector<std::uint64_t> seeds_;
    std::vector<std::vector<Program>> programs_; //!< per seed, per hart
    /** Clean-run length per seed, from the last replica pass. */
    std::vector<Cycle> clean_cycles_;

    /** Cycles runFuzzSeed simulates for @p seed: its clean run, then
     *  each crash run up to its crash point. */
    Cycle
    seedCycles(std::uint64_t seed, const std::vector<Program> &programs) const
    {
        SimResult unused;
        SoC clean(config(cleanSpec(), seed, Variant::Baseline));
        clean.setPrograms(programs);
        const Cycle t = settle(clean, unused);
        Cycle total = t;
        for (unsigned k = 0; k < spec_.crash_points; ++k)
            total += crashPoint(seed, k, t);
        return total;
    }

    workloads::FuzzSpec
    crashSpec(std::uint64_t seed, unsigned k, Cycle clean_cycles) const
    {
        workloads::FuzzSpec s = cleanSpec();
        s.crash_at = crashPoint(seed, k, clean_cycles);
        return s;
    }

    workloads::FuzzSpec
    cleanSpec() const
    {
        workloads::FuzzSpec s = spec_;
        s.crash_points = 0;
        return s;
    }

    static SoCConfig
    config(const workloads::FuzzSpec &spec, std::uint64_t seed, Variant v)
    {
        SoCConfig cfg = fuzzConfig(spec, seed);
        applyVariant(cfg, v);
        return cfg;
    }

    /**
     * Run like the fuzz harness does: to quiescence, a latched
     * violation, the power failure or the deadline. Adds what was
     * simulated to @p sim. @return the cycles run.
     */
    Cycle
    settle(SoC &soc, SimResult &sim) const
    {
        const auto settled = [&] {
            for (unsigned c = 0; c < soc.cores(); ++c) {
                if (!soc.hart(c).done() || !soc.l1(c).quiesced())
                    return false;
            }
            return soc.l2Idle();
        };
        const Cycle deadline = soc.sim().now() + spec_.max_cycles;
        soc.sim().runUntil(
            [&] {
                return settled() || !soc.checker().clean() ||
                       soc.durability().crashed() ||
                       soc.sim().now() >= deadline;
            },
            spec_.max_cycles + 1000);
        const Cycle cycles = soc.sim().now();
        sim.cycles += cycles;
        sim.executed += cycles - soc.sim().skippedCycles();
        sim.addCounters(soc.stats());
        return cycles;
    }

    void
    judge(const std::vector<std::optional<workloads::FuzzFailure>> &v,
          Result &r) const
    {
        for (const auto &f : v) {
            ++r.attempted;
            if (f)
                r.fail("fuzz seed " + std::to_string(f->seed) + ": " +
                       f->kind + ": " + f->detail);
        }
    }
};

} // namespace

std::unique_ptr<Workload>
makeFuzz(const Options &opt)
{
    return std::make_unique<FuzzWorkload>(opt);
}

} // namespace perfbench
