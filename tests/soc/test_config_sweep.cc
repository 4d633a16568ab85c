/**
 * @file
 * Parameterized configuration-space sweeps: the machine must stay
 * functionally correct (and the crash-consistency contract must hold)
 * for every combination of flush-unit sizing, MSHR counts, cache
 * geometry and feature flags — not just the defaults.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "sim/random.hh"
#include "soc/soc.hh"

namespace skipit {
namespace {

struct SweepPoint
{
    unsigned fshrs;
    unsigned flush_queue_depth;
    unsigned l1_mshrs;
    unsigned l2_mshrs;
    bool skip_it;
    bool wide_array;
    bool coalesce;

    std::string
    label() const
    {
        std::ostringstream os;
        os << "f" << fshrs << "_q" << flush_queue_depth << "_m"
           << l1_mshrs << "_M" << l2_mshrs;
        std::string s = os.str();
        s += skip_it ? "_skip" : "_noskip";
        s += wide_array ? "_wide" : "_narrow";
        s += coalesce ? "_co" : "_noco";
        return s;
    }
};

SoCConfig
configFor(const SweepPoint &p)
{
    SoCConfig cfg;
    cfg.l1.fshrs = p.fshrs;
    cfg.l1.flush_queue_depth = p.flush_queue_depth;
    cfg.l1.mshrs = p.l1_mshrs;
    cfg.l2.mshrs = p.l2_mshrs;
    cfg.l1.wide_data_array = p.wide_array;
    cfg.l1.coalesce = p.coalesce;
    cfg.withSkipIt(p.skip_it);
    return cfg;
}

class ConfigSweep : public ::testing::TestWithParam<SweepPoint>
{
};

TEST_P(ConfigSweep, RandomWorkloadStaysCorrectAndPersists)
{
    SoC soc(configFor(GetParam()));
    Rng rng(2024);

    // Random single-core workload over a small line pool with a
    // crash-consistency epilogue; must complete (no deadlock) and leave
    // DRAM matching the reference.
    std::vector<Addr> pool;
    for (int i = 0; i < 10; ++i)
        pool.push_back(0x40000 + static_cast<Addr>(i) *
                                     (i % 2 ? 3 * line_bytes
                                            : 64 * line_bytes));
    std::map<Addr, std::uint64_t> ref;
    Program p;
    for (int i = 0; i < 200; ++i) {
        const Addr a = pool[rng.below(pool.size())];
        const double dice = rng.uniform();
        if (dice < 0.4) {
            const std::uint64_t v = rng.next() | 1;
            ref[a] = v;
            p.push_back(MemOp::store(a, v));
        } else if (dice < 0.6) {
            p.push_back(MemOp::load(a));
        } else if (dice < 0.8) {
            p.push_back(MemOp::clean(a));
        } else {
            p.push_back(MemOp::flush(a));
        }
    }
    for (const Addr a : pool)
        p.push_back(MemOp::flush(a));
    p.push_back(MemOp::fence());

    soc.hart(0).setProgram(p);
    soc.runToQuiescence(20'000'000);
    for (const auto &[addr, value] : ref) {
        EXPECT_EQ(soc.dram().peekWord(addr), value)
            << GetParam().label() << " @ 0x" << std::hex << addr;
    }
    EXPECT_FALSE(soc.l1(0).flushing());
}

TEST_P(ConfigSweep, DualCoreSharedLineTrafficIsDeadlockFree)
{
    SoCConfig cfg = configFor(GetParam());
    cfg.cores = 2;
    SoC soc(cfg);
    Rng rng(77);
    std::vector<Program> programs(2);
    for (unsigned c = 0; c < 2; ++c) {
        for (int i = 0; i < 120; ++i) {
            const Addr a = 0x90000 + rng.below(6) * line_bytes;
            const double dice = rng.uniform();
            if (dice < 0.4)
                programs[c].push_back(MemOp::store(a, rng.next() | 1));
            else if (dice < 0.6)
                programs[c].push_back(MemOp::load(a));
            else if (dice < 0.8)
                programs[c].push_back(MemOp::flush(a));
            else
                programs[c].push_back(MemOp::clean(a));
        }
        programs[c].push_back(MemOp::fence());
    }
    soc.setPrograms(programs);
    soc.runToQuiescence(20'000'000); // panics on deadlock
    EXPECT_TRUE(soc.l2().idle());
}

INSTANTIATE_TEST_SUITE_P(
    Space, ConfigSweep,
    ::testing::Values(
        SweepPoint{1, 1, 1, 1, true, true, true},    // minimal everything
        SweepPoint{1, 8, 4, 32, false, true, true},  // single FSHR
        SweepPoint{8, 1, 4, 32, true, false, true},  // tiny queue, narrow
        SweepPoint{8, 8, 1, 2, true, true, false},   // starved MSHRs
        SweepPoint{16, 16, 8, 64, true, true, true}, // oversized
        SweepPoint{2, 2, 2, 4, false, false, false}, // everything off/small
        SweepPoint{8, 8, 4, 32, true, true, true}),  // defaults
    [](const ::testing::TestParamInfo<SweepPoint> &info) {
        return info.param.label();
    });

} // namespace
} // namespace skipit
