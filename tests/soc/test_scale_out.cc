/**
 * @file
 * Scale-out: SoCConfig generalizes to 64 harts striped over a sliced L2.
 * Every hart runs its own program to quiescence, every private region
 * lands in DRAM, and the directory tracks holders past the 32-hart
 * bitmask boundary, all under the coherence checker.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/asm.hh"
#include "soc/soc.hh"

using namespace skipit;

namespace {

/**
 * A per-core workload with both private traffic and cross-core
 * contention: each core dirties and writes back its own region, then
 * every core hammers a shared region — probes, RootReleases and grant
 * races all in flight.
 */
Program
scaleOutProgram(unsigned core, unsigned lines, bool flush)
{
    const Addr priv = 0x10000000 + static_cast<Addr>(core) * 0x100000;
    const Addr shared = 0x30000000;
    std::ostringstream text;
    for (unsigned i = 0; i < lines; ++i) {
        text << "store 0x" << std::hex << priv + i * line_bytes << " "
             << std::dec << core + 1 << "\n";
    }
    for (unsigned pass = 0; pass < 2; ++pass) {
        for (unsigned i = 0; i < lines; ++i) {
            text << (flush ? "cbo.flush 0x" : "cbo.clean 0x") << std::hex
                 << priv + i * line_bytes << std::dec << "\n";
        }
        text << "fence\n";
    }
    for (unsigned i = 0; i < lines / 2 + 1; ++i) {
        text << "store 0x" << std::hex << shared + i * line_bytes << " "
             << std::dec << core + 1 << "\n"
             << "cbo.flush 0x" << std::hex << shared + i * line_bytes
             << std::dec << "\n";
    }
    text << "fence\n";
    return assembleProgram(text.str());
}

} // namespace

TEST(ScaleOut, NHartScaleOutRunsToQuiescence)
{
    for (const unsigned cores : {2u, 4u, 16u, 32u, 64u}) {
        SoCConfig cfg;
        cfg.cores = cores;
        cfg.l2.slices = cores >= 16 ? 4 : 1;
        SoC soc(cfg);
        std::vector<Program> programs;
        for (unsigned c = 0; c < cores; ++c)
            programs.push_back(scaleOutProgram(c, 2, true));
        soc.setPrograms(programs);
        const Cycle elapsed = soc.runToQuiescence();
        EXPECT_GT(elapsed, 0u) << cores;
        for (unsigned c = 0; c < cores; ++c) {
            const Addr priv =
                0x10000000 + static_cast<Addr>(c) * 0x100000;
            EXPECT_EQ(soc.dram().peekWord(priv), c + 1)
                << "cores=" << cores << " hart " << c;
        }
        EXPECT_TRUE(soc.checker().clean()) << cores;
    }
}
