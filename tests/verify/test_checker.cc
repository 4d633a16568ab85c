/**
 * @file
 * The coherence invariant checker: catches injected protocol faults by
 * name, stays silent on healthy runs, and costs zero simulated cycles.
 */

#include <gtest/gtest.h>

#include "soc/soc.hh"
#include "verify/checker.hh"
#include "workloads/fuzz.hh"

namespace skipit {
namespace {

/**
 * A deterministic §5.4 probe-vs-flush-queue race: hart 1 dirties two
 * lines and queues flushes for both; with a single FSHR the second
 * flush waits in the queue while hart 0's load probes its line.
 */
SoCConfig
raceConfig()
{
    SoCConfig cfg;
    cfg.cores = 2;
    cfg.l1.fshrs = 1;
    cfg.l1.flush_queue_depth = 8;
    return cfg;
}

std::vector<Program>
racePrograms()
{
    const Addr a = 0x90000, b = 0x90040;
    Program p1;
    p1.push_back(MemOp::store(a + 8, 0x1111));
    p1.push_back(MemOp::store(b + 8, 0x2222));
    p1.push_back(MemOp::flush(b)); // occupies the only FSHR
    p1.push_back(MemOp::flush(a)); // stays queued, snapshot dirty
    p1.push_back(MemOp::fence());
    Program p0;
    p0.push_back(MemOp::compute(20));
    p0.push_back(MemOp::load(a + 8)); // probes hart 1 mid-queue
    return {p0, p1};
}

TEST(CoherenceChecker, InjectedProbeFaultDiesWithNamedInvariant)
{
    // probe_invalidate disabled: the probe downgrades the line but the
    // queued flush entry keeps its stale dirty snapshot. The checker is
    // fatal by default and must name the broken invariant — proof that
    // it watches this window at all — incremental or differential.
    for (const bool differential : {false, true}) {
        EXPECT_DEATH(
            {
                SoCConfig cfg = raceConfig();
                cfg.l1.test_break_probe_invalidate = true;
                cfg.verify.differential = differential;
                SoC soc(cfg);
                soc.setPrograms(racePrograms());
                soc.runToQuiescence(1'000'000);
            },
            "probe-invalidate");
    }
}

TEST(CoherenceChecker, SameRaceIsCleanWithoutTheFault)
{
    SoC soc(raceConfig());
    soc.setPrograms(racePrograms());
    soc.runToQuiescence(1'000'000);
    EXPECT_TRUE(soc.checker().clean());
    EXPECT_GT(soc.checker().checksRun(), 0u);
    EXPECT_EQ(soc.hart(0).loadValue(1), 0x1111u);
}

TEST(CoherenceChecker, LatchingModeRecordsViolationsWithoutAborting)
{
    SoCConfig cfg = raceConfig();
    cfg.l1.test_break_probe_invalidate = true;
    cfg.verify.fatal = false;
    SoC soc(cfg);
    soc.setPrograms(racePrograms());
    // Stop at the first latched violation; the broken protocol state is
    // not guaranteed to settle.
    soc.sim().runUntil([&] { return !soc.checker().clean(); }, 100'000);
    ASSERT_FALSE(soc.checker().clean());
    EXPECT_EQ(soc.checker().violations().front().invariant,
              "probe-invalidate");
}

/** A small two-hart store/flush/fence mix over five lines. */
std::vector<Program>
mixPrograms()
{
    std::vector<Program> ps(2);
    for (unsigned c = 0; c < 2; ++c) {
        for (int i = 0; i < 40; ++i) {
            const Addr a = 0x90000 + static_cast<Addr>(i % 5) * line_bytes;
            ps[c].push_back(MemOp::store(a + 8 * c, 0x100u * c + i + 1));
            if (i % 3 == 0)
                ps[c].push_back(MemOp::flush(a));
            if (i % 7 == 0)
                ps[c].push_back(MemOp::fence());
        }
        ps[c].push_back(MemOp::load(0x90000 + 8 * (1 - c)));
        ps[c].push_back(MemOp::clean(0x90000));
        ps[c].push_back(MemOp::fence());
    }
    return ps;
}

TEST(CoherenceChecker, CheckerOnOffIsCycleIdentical)
{
    // The checker is an observer registered last with nextWake() ==
    // wake_never: enabling it — incremental or differential — must not
    // move a single cycle, even with quiescence fast-forward on.
    enum class Mode { off, on, differential };
    const auto run = [](Mode mode) {
        SoCConfig cfg;
        cfg.cores = 2;
        cfg.verify.enabled = mode != Mode::off;
        cfg.verify.differential = mode == Mode::differential;
        SoC soc(cfg);
        soc.setPrograms(mixPrograms());
        const Cycle cycles = soc.runToQuiescence(10'000'000);
        EXPECT_TRUE(soc.checker().clean());
        return std::make_pair(cycles, soc.stats().get("l1.0.store_hits"));
    };
    const auto reference = run(Mode::off);
    for (const Mode mode : {Mode::on, Mode::differential})
        EXPECT_EQ(run(mode), reference) << "mode=" << static_cast<int>(mode);
}

TEST(CoherenceChecker, CostTracksActivityNotCacheSize)
{
    // The same program on caches four times larger must cost the
    // incremental checker exactly the same number of line examinations:
    // it looks at what the cycle touched, never at the whole cache.
    const auto run = [](unsigned l1_sets, unsigned l2_sets) {
        SoCConfig cfg;
        cfg.cores = 2;
        cfg.l1.sets = l1_sets;
        cfg.l2.sets = l2_sets;
        SoC soc(cfg);
        soc.setPrograms(mixPrograms());
        const Cycle cycles = soc.runToQuiescence(10'000'000);
        EXPECT_TRUE(soc.checker().clean());
        EXPECT_GT(soc.checker().checksRun(), 0u);
        return std::make_pair(cycles, soc.checker().linesExamined());
    };
    const auto base = run(64, 1024);
    EXPECT_GT(base.second, 0u);
    EXPECT_EQ(run(256, 1024), base);
    EXPECT_EQ(run(64, 4096), base);
    EXPECT_EQ(run(256, 4096), base);
}

TEST(CoherenceChecker, CheckNowSweepsQuiescentState)
{
    SoC soc(SoCConfig{});
    Program p;
    p.push_back(MemOp::store(0x40008, 0xabcd));
    p.push_back(MemOp::flush(0x40000));
    p.push_back(MemOp::fence());
    soc.hart(0).setProgram(p);
    soc.runToQuiescence(1'000'000);
    soc.checker().checkNow(); // adds the full L2-vs-DRAM comparison
    EXPECT_TRUE(soc.checker().clean());
    EXPECT_EQ(soc.dram().peekWord(0x40008), 0xabcdu);
}

// ---------------------------------------------------------------------
// Negative controls: every injected fault is caught by name, both by the
// incremental checker and in differential mode (the probe-invalidate
// control is InjectedProbeFaultDiesWithNamedInvariant above).
// ---------------------------------------------------------------------

class CheckerNegative : public ::testing::TestWithParam<bool>
{
  protected:
    /** The checker mode under test: incremental or differential. */
    void
    setMode(SoCConfig &cfg) const
    {
        cfg.verify.differential = GetParam();
    }
};

INSTANTIATE_TEST_SUITE_P(Modes, CheckerNegative, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &info) {
                             return info.param ? "differential"
                                               : "incremental";
                         });

/**
 * Hart 0 dirties a line and hart 1 loads it: hart 1 then holds a clean
 * copy while the L2 copy is dirty (DRAM still stale), so a skip bit on
 * hart 1's line is exactly a skip-soundness fault. Runs until that
 * state has settled quiet, and the checker has examined it.
 */
constexpr Addr skip_line = 0xB0000;

void
runToCleanSharedCopy(SoC &soc)
{
    soc.setPrograms({{MemOp::store(skip_line, 0x42), MemOp::fence()},
                     {MemOp::compute(80), MemOp::load(skip_line),
                      MemOp::compute(400)}});
    soc.sim().runUntil(
        [&] {
            const L1Arrays &a = soc.l1(1).arrays();
            const int w = a.findWay(skip_line);
            return w >= 0 &&
                   !a.meta(a.setOf(skip_line), static_cast<unsigned>(w))
                        .dirty;
        },
        100'000);
    soc.sim().run(200); // the fill's grant ack retires; the line is quiet
    ASSERT_TRUE(soc.l2(0).isDirty(skip_line));
    ASSERT_FALSE(soc.l1(1).lineBusy(skip_line));
}

/** The machine is quiescent after runToCleanSharedCopy; give it
 *  executed cycles (the checker ticks only in those) on another line. */
void
runUnrelatedLoad(SoC &soc)
{
    soc.hart(0).setProgram({MemOp::load(skip_line + 0x10000)});
    soc.runToQuiescence(1'000'000);
}

TEST_P(CheckerNegative, InjectedSkipCorruptionDiesWithNamedInvariant)
{
    EXPECT_DEATH(
        {
            SoCConfig cfg;
            cfg.cores = 2;
            setMode(cfg);
            SoC soc(cfg);
            runToCleanSharedCopy(soc);
            soc.l1(1).injectSkipCorruption(skip_line);
            runUnrelatedLoad(soc);
        },
        "skip-soundness");
}

TEST_P(CheckerNegative, MisrouteTripsSliceRouting)
{
    SoCConfig cfg;
    cfg.cores = 2;
    cfg.l2.slices = 2;
    cfg.verify.fatal = false;
    setMode(cfg);
    SoC soc(cfg);
    soc.xbar()->injectAMisroute();
    Program p;
    p.push_back(MemOp::store(0x4000, 1));
    p.push_back(MemOp::store(0x4040, 2));
    soc.setPrograms({p, p});
    soc.runToCompletion(200'000);
    ASSERT_FALSE(soc.checker().clean());
    EXPECT_EQ(soc.checker().violations().front().invariant,
              "slice-routing");
}

TEST_P(CheckerNegative, SliceIndexedDifferentlyFromItsRouterIsCaught)
{
    // Two hashed-index slices, one request delivered the way a modulo
    // router would: slice 0 accepts a line that homes to slice 1. The
    // per-cycle audit flags the transaction; the line-scoped audit
    // flags the directory entry it leaves behind.
    Simulator sim;
    Stats stats;
    L2Config cfg;
    cfg.slices = 2;
    cfg.index = IndexKind::Hashed;
    Dram dram("dram", sim, DramConfig{}, stats);
    L2Cache s0("l2.s0", sim, cfg, dram, stats, 0);
    L2Cache s1("l2.s1", sim, cfg, dram, stats, 1);
    TLLink link(sim, 1);
    s0.connectClient(0, link);

    verify::CheckerConfig vcfg;
    vcfg.fatal = false;
    // The in-flight audit latches once per cycle while the transaction
    // runs; keep room for the residence finding that follows it.
    vcfg.max_violations = 100'000;
    vcfg.differential = GetParam();
    verify::CoherenceChecker checker("checker", sim, vcfg);
    checker.setL2(s0);
    checker.setL2(s1);
    checker.setDram(dram);
    sim.add(dram);
    sim.add(s0);
    sim.add(s1);
    sim.add(checker);

    Addr line = 0x1000;
    while (cfg.indexPolicy().sliceOf(line) != 1)
        line += line_bytes;
    AMsg acquire;
    acquire.addr = line;
    acquire.param = Grow::NtoB;
    acquire.source = 0;
    link.a.send(acquire);
    sim.runUntil([&] { return link.d.ready(); });
    link.d.recv();
    EMsg ack;
    ack.addr = line;
    ack.source = 0;
    link.e.send(ack);
    sim.runUntil([&] { return s0.idle(); });
    sim.run(4);

    ASSERT_FALSE(checker.clean());
    EXPECT_EQ(checker.violations().front().invariant, "slice-routing");
    bool resident_flagged = false;
    for (const verify::Violation &v : checker.violations())
        resident_flagged |= v.detail.find(" holds line") != std::string::npos;
    EXPECT_TRUE(resident_flagged)
        << "the directory entry was never audited by the per-cycle check";
}

TEST(CoherenceChecker, DifferentialModeCatchesADroppedTouchLog)
{
    // The negative control for differential mode itself: lose one
    // cycle's touch logs, exactly when a skip bit is corrupted. The
    // incremental check never sees the write; the full sweep does.
    EXPECT_DEATH(
        {
            SoCConfig cfg;
            cfg.cores = 2;
            cfg.verify.differential = true;
            SoC soc(cfg);
            runToCleanSharedCopy(soc);
            soc.checker().dropNextTouchLogsForTest();
            soc.l1(1).injectSkipCorruption(skip_line);
            runUnrelatedLoad(soc);
        },
        "incremental checker missed \\[skip-soundness\\]");
}

} // namespace
} // namespace skipit
