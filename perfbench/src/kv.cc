/**
 * @file
 * kv-a and kv-b: the served persistent-KV workloads. The benchmark runs
 * workloads::runKv's orchestration itself so it can time the set-up
 * (store prefill, trace generation, SoC build, DRAM image load) apart
 * from the run call; a traced run cross-checks the result against
 * runKv, so the two cannot drift apart unnoticed.
 */

#include <algorithm>
#include <numeric>

#include "kv/store.hh"
#include "workload.hh"
#include "workloads/ycsb.hh"

namespace perfbench {

namespace {

using namespace skipit;

/** The served machine right before its first simulated cycle. */
struct KvMachine
{
    std::vector<std::unique_ptr<kv::KvStore>> stores;
    std::unique_ptr<SoC> soc;
};

class KvWorkload : public Workload
{
  public:
    KvWorkload(const Options &opt, bool mix_a)
    {
        spec_.cores = 2;
        spec_.slices = 4;
        spec_.ops = opt.tiny ? 32 : 512;
        spec_.seed = opt.seed;
        if (mix_a) {
            // Update-heavy and skewed: the working set fits the L2, and
            // the commit epochs keep the flush unit busy.
            spec_.mix = "A";
            spec_.keys = opt.tiny ? 64 : 1024;
        } else {
            // Read-mostly, uniform, 3x the L2, offered at ~63% of the
            // closed-loop rate: misses all the way to DRAM.
            spec_.mix = "B";
            spec_.distribution = "uniform";
            spec_.keys = opt.tiny ? 256 : 4096;
            spec_.arrival_period = 500;
        }
    }

    unsigned harts() const override { return spec_.cores; }

    SetupParts
    setUp(SpanLog &spans) override
    {
        KvMachine m;
        return build(spec_, m, Variant::Baseline, spans);
    }

    std::optional<SimResult>
    warmUp(SpanLog &spans, Result &r) override
    {
        // A short serve of the same machine: the timed passes carry
        // their own per-op latencies, so the first one is the reference.
        workloads::KvSpec small = spec_;
        small.ops = std::max<std::uint64_t>(1, spec_.ops / 8);
        serve(small, Variant::Baseline, spans, r, nullptr);
        return std::nullopt;
    }

    Pass
    pass(Variant v, SpanLog &spans, Result &r,
         TxnTracer *tracer) override
    {
        return serve(spec_, v, spans, r, tracer);
    }

    void
    traceExtras(SpanLog &spans, Result &r, const SimResult &ref) override
    {
        workloads::KvSpec spec = spec_;
        spec.trace_stages = true;
        workloads::KvRunResult lib;
        spans.timed("workloads::runKv", [&] { lib = workloads::runKv(spec); });
        const auto mismatch = [&](const std::string &what) {
            r.fail("runKv disagrees with the benchmark's serve: " + what);
        };
        if (lib.cycles != ref.cycles)
            mismatch("cycles");
        if (lib.total_ops != ref.ops)
            mismatch("ops");
        if (lib.latency.samples().samples() !=
            ref.latency.samples().samples())
            mismatch("per-op latencies");
        // The driver has already read the reference's counters.
        if (static_cast<double>(lib.cbo_cleans) !=
            r.metrics.at("l1.cbo_cleans"))
            mismatch("cbo cleans");
        if (static_cast<double>(lib.skip_drops) !=
            r.metrics.at("l1.skip_drops"))
            mismatch("skip drops");
    }

  private:
    /** Simulated cycles per timed slice: tens of host milliseconds. */
    static constexpr Cycle slice_cycles = 1000;

    workloads::KvSpec spec_;

    Pass
    serve(const workloads::KvSpec &spec, Variant v, SpanLog &spans,
          Result &r, TxnTracer *tracer) const
    {
        Pass p;
        KvMachine m;
        build(spec, m, v, spans);
        SoC &soc = *m.soc;
        if (tracer != nullptr)
            soc.sim().probes().attach(*tracer);
        // SoC::runToQuiescence's condition, run in timed slices.
        const auto quiesced = [&] {
            for (unsigned c = 0; c < soc.cores(); ++c) {
                if (!soc.hart(c).done() || !soc.l1(c).quiesced())
                    return false;
            }
            return soc.l2Idle();
        };
        const Cycle skipped0 = soc.sim().skippedCycles();
        spans.timed("SoC::runToQuiescence", [&] {
            p.sim.cycles = runSliced(soc.sim(), quiesced, slice_cycles,
                                     spec.max_cycles, p.slices);
        });
        if (tracer != nullptr)
            soc.sim().probes().detach(*tracer);
        p.sim.executed =
            p.sim.cycles - (soc.sim().skippedCycles() - skipped0);
        p.has_sim = true;
        verify(spec, m, p.sim, r);
        p.sim.addCounters(soc.stats());
        return p;
    }

    /** Set up @p m as runKv does; @return the seconds of each part. */
    SetupParts
    build(const workloads::KvSpec &spec, KvMachine &m, Variant v,
          SpanLog &spans) const
    {
        SetupParts t;
        t["setup.kv_prefill_s"] = spans.timed("KvStore::prefill", [&] {
            for (unsigned h = 0; h < spec.cores; ++h) {
                kv::KvStoreConfig scfg;
                scfg.hart = h;
                scfg.value_bytes = spec.value_bytes;
                m.stores.push_back(std::make_unique<kv::KvStore>(scfg));
                m.stores.back()->prefill(spec.keys);
            }
        });
        std::vector<Program> programs(spec.cores);
        t["setup.trace_gen_s"] = spans.timed("trace_gen", [&] {
            generate(spec, m, programs);
        });
        SoCConfig cfg;
        cfg.cores = spec.cores;
        cfg.l2.slices = spec.slices;
        cfg.withSkipIt(spec.skipit);
        applyVariant(cfg, v);
        t["setup.soc_build_s"] = spans.timed("SoC::SoC", [&] {
            m.soc = std::make_unique<SoC>(cfg);
        });
        t["setup.dram_load_s"] = spans.timed("Dram::pokeLine", [&] {
            for (const auto &store : m.stores) {
                for (const auto &[addr, line] : store->image())
                    m.soc->dram().pokeLine(addr, line);
            }
            for (unsigned h = 0; h < spec.cores; ++h)
                m.soc->hart(h).setProgram(std::move(programs[h]));
        });
        return t;
    }

    /**
     * Plan and emit each hart's op trace exactly as runKv does (same
     * seed derivations, same rank-to-key scramble), for the read/update
     * mixes this benchmark serves.
     */
    static void
    generate(const workloads::KvSpec &spec, KvMachine &m,
             std::vector<Program> &programs)
    {
        const double read = spec.mix == "A" ? 0.50 : 0.95;
        std::vector<std::uint64_t> perm(spec.keys);
        std::iota(perm.begin(), perm.end(), 1);
        Rng prng(derive(spec.seed, 0x5ca3b1e));
        for (std::size_t i = perm.size(); i > 1; --i)
            std::swap(perm[i - 1], perm[prng.below(i)]);
        std::unique_ptr<workloads::ZipfianGen> zipf;
        if (spec.distribution == "zipfian")
            zipf = std::make_unique<workloads::ZipfianGen>(spec.keys,
                                                           spec.theta);
        for (unsigned h = 0; h < spec.cores; ++h) {
            Rng rng(derive(spec.seed, 0x9cb0'0000ULL + h));
            kv::KvStore &store = *m.stores[h];
            Program &prog = programs[h];
            for (std::uint64_t i = 0; i < spec.ops; ++i) {
                const bool update = !(rng.uniform() < read);
                const std::uint64_t key =
                    zipf ? perm[zipf->sample(rng) % perm.size()]
                         : 1 + rng.below(spec.keys);
                if (spec.arrival_period > 0)
                    prog.push_back(MemOp::waitUntil(
                        static_cast<Cycle>(i) * spec.arrival_period));
                prog.push_back(MemOp::marker(2 * i));
                if (update)
                    store.emitUpdate(prog, key);
                else
                    store.emitGet(prog, key);
                prog.push_back(MemOp::marker(2 * i + 1));
                if ((i + 1) % spec.checkpoint_every == 0)
                    store.emitCheckpoint(prog);
            }
        }
    }

    /**
     * The correctness gate of one serve: every op has its completion
     * marker, the checker latched nothing (including a final full
     * sweep), and the persist domain holds exactly the store's image.
     */
    static void
    verify(const workloads::KvSpec &spec, KvMachine &m, SimResult &sim,
           Result &r)
    {
        SoC &soc = *m.soc;
        for (unsigned h = 0; h < spec.cores; ++h) {
            r.attempted += spec.ops;
            Hart &hart = soc.hart(h);
            if (!hart.done()) {
                r.fail("hart " + std::to_string(h) +
                           " did not finish: ops without a completion "
                           "marker",
                       spec.ops);
                continue;
            }
            for (std::uint64_t i = 0; i < spec.ops; ++i) {
                const Cycle end = hart.markerCycle(2 * i + 1);
                const Cycle from =
                    spec.arrival_period > 0
                        ? static_cast<Cycle>(i) * spec.arrival_period
                        : hart.markerCycle(2 * i);
                sim.latency.add(static_cast<double>(end - from));
            }
            sim.ops += spec.ops;
        }
        soc.checker().checkNow();
        if (!soc.checker().clean())
            r.fail("checker latched '" +
                       soc.checker().violations().front().invariant + "'",
                   soc.checker().violations().size());
        std::uint64_t torn = 0;
        for (const auto &store : m.stores) {
            for (const auto &[addr, line] : store->image()) {
                if (soc.dram().persistLine(addr) != line)
                    ++torn;
            }
        }
        if (torn != 0)
            r.fail(std::to_string(torn) +
                       " persisted lines differ from the store's image",
                   torn);
    }
};

} // namespace

std::unique_ptr<Workload>
makeKv(const Options &opt, bool mix_a)
{
    return std::make_unique<KvWorkload>(opt, mix_a);
}

} // namespace perfbench
