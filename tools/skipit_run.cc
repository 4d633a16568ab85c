/**
 * @file
 * skipit-run: execute an assembly program on the simulated SoC.
 *
 *   skipit-run [options] <program.s> [<program2.s> ...]
 *
 * Each program file runs on its own hart (core i gets file i). Options:
 *
 *   --cores N        number of cores, 1-64 (default: number of programs)
 *   --slices N       number of address-interleaved L2 slices (default 1)
 *   --no-skipit      disable the Skip It skip bit and GrantDataDirty
 *   --trace CH[,CH]  enable trace channels (flush, l1, l2, all)
 *   --trace-out FILE write a Chrome trace-event JSON of every memory
 *                    transaction (open in chrome://tracing / Perfetto);
 *                    also prints per-stage latency histograms with --stats
 *   --stats          dump every counter at the end
 *   --stats-prefix P restrict --stats output to counters starting with P
 *   --peek ADDR      print the DRAM word at ADDR after the run
 *                    (repeatable)
 *
 * Example:
 *
 *   cat > wb.s <<'EOF'
 *   store     0x1000 42
 *   cbo.flush 0x1000
 *   fence
 *   EOF
 *   skipit-run --stats --peek 0x1000 wb.s
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "cli.hh"
#include "core/asm.hh"
#include "sim/trace.hh"
#include "sim/txn_tracer.hh"
#include "soc/soc.hh"

using namespace skipit;

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: skipit-run [--cores N] [--slices N] "
                 "[--no-skipit]\n"
                 "                  [--trace CH[,CH]] [--stats] "
                 "[--stats-prefix P]\n"
                 "                  [--trace-out FILE] [--describe]\n"
                 "                  [--l2-policy inclusive|exclusive] "
                 "[--l2-index modulo|hashed]\n"
                 "                  [--l2-replace lru|fifo|random] "
                 "[--peek ADDR]... <program.s>...\n");
}

} // namespace

int
main(int argc, char **argv)
{
    SoCConfig cfg;
    unsigned cores = 0;
    bool dump_stats = false;
    bool describe = false;
    std::string trace_out;
    std::string stats_prefix;
    std::vector<Addr> peeks;
    std::vector<std::string> files;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const cli::MachineFlag *mf = cli::machineFlag(cli::Run, arg);
            if (mf != nullptr && (mf->value != nullptr || i + 1 < argc)) {
                applyConfigKey(cfg, mf->key,
                               mf->value ? mf->value : argv[++i]);
            } else if (arg == "--cores" && i + 1 < argc) {
                cores = parseUnsigned(arg, argv[++i]);
            } else if (arg == "--trace" && i + 1 < argc) {
                for (const std::string &ch : cli::splitList(argv[++i]))
                    trace::enable(ch);
            } else if (arg == "--trace-out" && i + 1 < argc) {
                trace_out = argv[++i];
            } else if (arg.rfind("--trace-out=", 0) == 0) {
                trace_out = arg.substr(12);
            } else if (arg == "--stats") {
                dump_stats = true;
            } else if (arg == "--stats-prefix" && i + 1 < argc) {
                stats_prefix = argv[++i];
                dump_stats = true;
            } else if (arg.rfind("--stats-prefix=", 0) == 0) {
                stats_prefix = arg.substr(15);
                dump_stats = true;
            } else if (arg == "--describe") {
                describe = true;
            } else if (arg == "--peek" && i + 1 < argc) {
                peeks.push_back(parseU64(arg, argv[++i]));
            } else if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else if (!arg.empty() && arg[0] == '-') {
                usage();
                return 1;
            } else {
                files.push_back(arg);
            }
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    if (files.empty()) {
        usage();
        return 1;
    }

    cfg.cores = cores != 0 ? cores
                           : static_cast<unsigned>(files.size());
    if (cfg.cores < files.size()) {
        std::fprintf(stderr, "error: %zu programs but only %u cores\n",
                     files.size(), cfg.cores);
        return 1;
    }
    SoC soc(cfg);
    if (describe)
        std::fputs(cfg.describe().c_str(), stdout);

    TxnTracer tracer;
    if (!trace_out.empty()) {
        soc.sim().probes().attach(tracer);
        soc.watchdog().setTracer(&tracer);
    }

    for (std::size_t i = 0; i < files.size(); ++i)
        soc.hart(static_cast<unsigned>(i))
            .setProgram(assembleProgram(cli::readFile(files[i])));

    const Cycle cycles = soc.runToQuiescence();
    std::printf("completed in %llu cycles (%u cores, skip-it %s)\n",
                static_cast<unsigned long long>(cycles), cfg.cores,
                cfg.l1.skip_it ? "on" : "off");

    for (const Addr a : peeks) {
        std::printf("dram[0x%llx] = 0x%llx\n",
                    static_cast<unsigned long long>(a),
                    static_cast<unsigned long long>(
                        soc.dram().peekWord(a)));
    }
    if (!trace_out.empty() && tracer.writeChromeTraceFile(trace_out)) {
        std::printf("wrote %zu trace events to %s\n",
                    tracer.eventCount(), trace_out.c_str());
    }
    if (dump_stats) {
        if (stats_prefix.empty())
            soc.stats().dump(std::cout);
        else
            soc.stats().dumpPrefix(std::cout, stats_prefix);
        if (!trace_out.empty()) {
            std::printf("\nper-stage latency histograms (cycles):\n");
            tracer.dumpHistograms(std::cout);
        }
    }
    return 0;
}
