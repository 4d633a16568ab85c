/**
 * @file
 * The benchmark's run driver: one workload, one seed, one JSON result.
 *
 *   perfbench --workload kv-a|kv-b|fuzz-crash|cbo-redundant --seed N
 *             --seconds S --trace 0|1 --out-dir DIR
 *             [--tiny] [--break-probe-invalidate]
 *
 * --trace 0 measures the end-to-end metrics: repeated set-ups, an untimed
 * reference pass that also warms the host, then timed passes until S
 * seconds of run calls are spent; host times are medians over passes.
 * --trace 1 measures the per-layer metrics instead: rounds of baseline,
 * traced, checker-off and watchdog-off passes. Every pass must simulate
 * exactly what the reference did, or the run fails.
 *
 * The last line of stdout is the result; the line before it records the
 * provenance and sample counts. Spans go to DIR once the run ends.
 */

#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>

#include "workload.hh"

namespace {

using namespace perfbench;

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, printed with --trace 0. */
constexpr MetricDef end_to_end[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"sim_kcycles_per_s", "kcycles/s"},
    {"peak_rss_mb", "MiB"},
    {"sim_cycles", "cycles"},
    {"ops_per_kcycle", "ops/kcycle"},
    {"lat_p50_cycles", "cycles"},
    {"lat_p99_cycles", "cycles"},
};

/** Per-layer metrics, printed with --trace 1. */
constexpr MetricDef per_layer[] = {
    {"sim.executed_cycles", "cycles"},
    {"sim.skipped_cycles", "cycles"},
    {"sim.host_ns_per_executed_cycle", "ns"},
    {"checker.host_share", "ratio"},
    {"watchdog.host_share", "ratio"},
    {"trace.overhead_pct", "%"},
    {"setup.kv_prefill_s", "s"},
    {"setup.trace_gen_s", "s"},
    {"setup.soc_build_s", "s"},
    {"setup.dram_load_s", "s"},
    {"fuzz.generate_s", "s"},
    {"fuzz.clean_run_s", "s"},
    {"fuzz.crash_run_s", "s"},
    {"lsu.window.p50", "cycles"},
    {"lsu.window.p99", "cycles"},
    {"l1.fshr.count", "count"},
    {"l1.fshr.p50", "cycles"},
    {"l1.fshr.p99", "cycles"},
    {"l1.flushq.p99", "cycles"},
    {"l1.cbo_cleans", "count"},
    {"l1.skip_drops", "count"},
    {"l1.skip_drop_ratio", "ratio"},
    {"l1.mshr.count", "count"},
    {"l1.mshr.p50", "cycles"},
    {"l1.mshr.p99", "cycles"},
    {"l1.wbu.p99", "cycles"},
    {"l1.mshr_full", "count"},
    {"l1.flushq_full", "count"},
    {"l1.nacks", "count"},
    {"tl.a.count", "count"},
    {"tl.a.p99", "cycles"},
    {"tl.b.count", "count"},
    {"tl.b.p99", "cycles"},
    {"tl.c.count", "count"},
    {"tl.c.p99", "cycles"},
    {"tl.d.count", "count"},
    {"tl.d.p99", "cycles"},
    {"tl.e.count", "count"},
    {"tl.e.p99", "cycles"},
    {"l2.mshr.count", "count"},
    {"l2.mshr.p50", "cycles"},
    {"l2.mshr.p99", "cycles"},
    {"l2.rootrelease.clean", "count"},
    {"l2.rootrelease.mem_writebacks", "count"},
    {"l2.llcskip", "count"},
    {"l2.victim_writebacks", "count"},
    {"dram.read.count", "count"},
    {"dram.read.p99", "cycles"},
    {"dram.write.count", "count"},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload kv-a|kv-b|fuzz-crash|"
                 "cbo-redundant --seed N --seconds S --trace 0|1 "
                 "--out-dir DIR [--tiny] [--break-probe-invalidate]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false, have_dir = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        try {
            if (a == "--workload") {
                o.workload = value();
                have_workload = true;
            } else if (a == "--seed") {
                o.seed = std::stoull(value());
            } else if (a == "--seconds") {
                o.seconds = std::stod(value());
            } else if (a == "--trace") {
                const std::string t = value();
                if (t != "0" && t != "1")
                    usage("--trace takes 0 or 1");
                o.trace = t == "1";
            } else if (a == "--out-dir") {
                o.out_dir = value();
                have_dir = true;
            } else if (a == "--tiny") {
                o.tiny = true;
            } else if (a == "--break-probe-invalidate") {
                o.break_probe = true;
            } else {
                usage("unknown argument " + a);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    if (!have_workload || !have_dir)
        usage("--workload and --out-dir are required");
    if (!(o.seconds > 0) || o.seconds > 3600)
        usage("--seconds must be in (0, 3600]");
    return o;
}

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    if (o.workload == "kv-a")
        return makeKv(o, /*mix_a=*/true);
    if (o.workload == "kv-b")
        return makeKv(o, /*mix_a=*/false);
    if (o.workload == "fuzz-crash")
        return makeFuzz(o);
    if (o.workload == "cbo-redundant")
        return makeCbo(o);
    usage("unknown workload '" + o.workload + "'");
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid(0x80000000, &regs[0], &regs[1], &regs[2], &regs[3]) &&
        regs[0] >= 0x80000004) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const auto b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

/**
 * Set-up samples. Set-up is estimated like the run call: the fastest
 * time of each part over many set-ups spread through the run, summed.
 */
struct SetupSamples
{
    std::map<std::string, double> fastest;
    std::size_t count = 0;

    void
    add(const SetupParts &p)
    {
        for (const auto &[key, s] : p) {
            const auto it = fastest.find(key);
            fastest[key] = it == fastest.end() ? s : std::min(it->second, s);
        }
        ++count;
    }

    double
    total() const
    {
        double sum = 0;
        for (const auto &kv : fastest)
            sum += kv.second;
        return sum;
    }
};

/** Set-ups taken between passes, so they sample the whole run. */
constexpr unsigned setups_between_passes = 4;

/** Check a pass against the reference; a difference fails the run. */
void
gate(const Pass &p, std::optional<SimResult> &ref, Variant v, Result &r)
{
    if (!p.has_sim)
        return;
    if (!ref) {
        ref = p.sim;
        return;
    }
    const bool latency = !p.sim.latency.empty() && !ref->latency.empty();
    const std::string diff = p.sim.diff(*ref, latency);
    if (!diff.empty())
        r.fail(std::string(name(v)) + " pass simulated something else "
               "than the reference: " + diff);
}

/** Fold one pass's slices into @p best; misaligned slices fail. */
void
foldSlices(SliceMin &best, const Pass &p, Result &r)
{
    if (!best.add(p.slices))
        r.fail("a pass cut its run call into different slices");
}

void
measureEndToEnd(Workload &w, const Options &o, std::optional<SimResult> ref,
                SpanLog &spans, SetupSamples &setups, Result &r)
{
    SliceMin best;
    std::vector<double> whole;
    double spent = 0;
    // At least two passes; then another only while it should still end
    // within the budget.
    while (whole.size() < 2 || spent + whole.back() <= o.seconds) {
        const Pass p = w.timedPass(spans, r);
        gate(p, ref, Variant::Baseline, r);
        foldSlices(best, p, r);
        whole.push_back(p.seconds());
        spent += whole.back();
        for (unsigned i = 0; i < setups_between_passes; ++i)
            setups.add(w.setUp(spans));
    }
    const double wall = best.total();
    r.metrics["wall_s"] = wall;
    r.samples["wall_s.passes"] = best.passes();
    r.info["wall_s.median_pass_s"] = median(whole);
    if (!ref)
        r.fail("no pass reported what it simulated");
    else
        simMetrics(*ref, wall, r);
}

void
measurePerLayer(Workload &w, const Options &o, std::optional<SimResult> ref,
                SpanLog &spans, SetupSamples &setups, Result &r)
{
    constexpr Variant variants[] = {Variant::Baseline, Variant::Traced,
                                    Variant::CheckerOff,
                                    Variant::WatchdogOff};
    std::map<Variant, SliceMin> best;
    double spent = 0;
    for (unsigned round = 0; round == 0 || spent < o.seconds; ++round) {
        for (const Variant v : variants) {
            skipit::TxnTracer tracer(/*keep_events=*/false);
            const Pass p = w.pass(v, spans, r,
                                  v == Variant::Traced ? &tracer : nullptr);
            gate(p, ref, v, r);
            foldSlices(best[v], p, r);
            spent += p.seconds();
            if (round == 0 && v == Variant::Traced)
                stageMetrics(tracer, r);
        }
        for (unsigned i = 0; i < setups_between_passes; ++i)
            setups.add(w.setUp(spans));
    }
    if (!ref) {
        r.fail("no pass reported what it simulated");
        return;
    }
    const double base = best[Variant::Baseline].total();
    r.samples["variant_rounds"] = best[Variant::Baseline].passes();
    r.metrics["sim.executed_cycles"] = static_cast<double>(ref->executed);
    r.metrics["sim.skipped_cycles"] =
        static_cast<double>(ref->cycles - ref->executed);
    r.metrics["sim.host_ns_per_executed_cycle"] =
        base * 1e9 /
        static_cast<double>(std::max<std::uint64_t>(ref->executed, 1));
    r.metrics["checker.host_share"] =
        1.0 - best[Variant::CheckerOff].total() / base;
    r.metrics["watchdog.host_share"] =
        1.0 - best[Variant::WatchdogOff].total() / base;
    r.metrics["trace.overhead_pct"] =
        (best[Variant::Traced].total() / base - 1.0) * 100.0;
    counterMetrics(*ref, w.harts(), r);
    w.traceExtras(spans, r, *ref);
}

void
printJsonNumber(std::ostream &os, double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
#if !defined(__OPTIMIZE__)
    std::cerr << "perfbench: refusing to report host metrics from a build "
                 "without optimisation\n";
    return 2;
#endif
    const std::string build_type = PERFBENCH_BUILD_TYPE;
    if (build_type != "Release" && build_type != "RelWithDebInfo") {
        std::cerr << "perfbench: refusing to report host metrics from a '"
                  << build_type << "' build\n";
        return 2;
    }

    std::unique_ptr<Workload> w = makeWorkload(opt);
    const std::string run_id = opt.workload + "-seed" +
                               std::to_string(opt.seed) + "-trace" +
                               (opt.trace ? "1" : "0");
    SpanLog spans(run_id);
    Result r;
    SetupSamples setups;
    for (unsigned i = 0; i < (opt.tiny ? 2u : 15u); ++i)
        setups.add(w->setUp(spans));

    const std::optional<SimResult> ref = w->warmUp(spans, r);
    if (opt.trace) {
        measurePerLayer(*w, opt, ref, spans, setups, r);
        for (const auto &kv : setups.fastest)
            r.metrics[kv.first] = kv.second;
    } else {
        measureEndToEnd(*w, opt, ref, spans, setups, r);
        r.metrics["setup_s"] = setups.total();
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        r.metrics["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024;
    }
    r.samples["setup_s.setups"] = setups.count;

    // Everything below is outside every timed section.
    {
        std::ofstream f(opt.out_dir + "/" + run_id + ".spans.json");
        spans.writeJson(f);
        if (!f)
            r.fail("could not write the span log to " + opt.out_dir);
    }

    std::ostringstream info;
    info << "{\"provenance\": {\"workload\": \"" << opt.workload
         << "\", \"seed\": " << opt.seed << ", \"trace\": " << opt.trace
         << ", \"seconds\": " << opt.seconds
         << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
         << ", \"cpu_model\": \"" << cpuModel() << "\", \"build_type\": \""
         << build_type << "\", \"compiler\": \"" << __VERSION__
         << "\"}, \"samples\": {";
    const char *sep = "";
    for (const auto &[key, n] : r.samples) {
        info << sep << "\"" << key << "\": " << n;
        sep = ", ";
    }
    info << "}, \"info\": {";
    sep = "";
    for (const auto &[key, v] : r.info) {
        info << sep << "\"" << key << "\": ";
        printJsonNumber(info, v);
        sep = ", ";
    }
    info << "}}";
    std::cout << info.str() << "\n";

    // Per-layer metrics of a layer the workload does not have (the KV
    // and fuzz set-up parts elsewhere) read 0; any other gap is a bug.
    std::vector<std::pair<MetricDef, double>> shown;
    for (const MetricDef &m : opt.trace ? std::span<const MetricDef>(per_layer)
                                        : std::span<const MetricDef>(end_to_end)) {
        const auto it = r.metrics.find(m.name);
        double v = it == r.metrics.end() ? 0.0 : it->second;
        if (it == r.metrics.end() && !opt.trace)
            r.fail(std::string("metric ") + m.name + " was not measured");
        if (!std::isfinite(v)) {
            r.fail(std::string("metric ") + m.name + " is not finite");
            v = 0;
        }
        shown.emplace_back(m, v);
    }
    std::cout << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << r.attempted
              << ", \"failed\": " << r.failed << ", \"metrics\": {";
    sep = "";
    for (const auto &[m, v] : shown) {
        std::cout << sep << "\"" << m.name << "\": {\"value\": ";
        printJsonNumber(std::cout, v);
        std::cout << ", \"unit\": \"" << m.unit << "\"}";
        sep = ", ";
    }
    std::cout << "}}" << std::endl;
    return 0;
}
