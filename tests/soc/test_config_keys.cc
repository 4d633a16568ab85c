/**
 * @file
 * The machine-key table (soc/config_keys.hh): every key survives
 * print -> parse, every key rejects a malformed token naming itself, and
 * the readers built on it (fuzz replay bundles) still read the bundles
 * written before the table existed.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "soc/config_keys.hh"
#include "workloads/fuzz.hh"

namespace skipit {
namespace {

/** Every knob the table covers, each away from its default. */
SoCConfig
nonDefault()
{
    SoCConfig c;
    c.l1.skip_it = false;
    c.l2.grant_data_dirty = true; // skipit=0 alone would clear it
    c.l1.coalesce = false;
    c.l1.cross_kind_coalesce = true;
    c.l1.wide_data_array = false;
    c.l1.fshrs = 3;
    c.l1.flush_queue_depth = 5;
    c.l1.mshrs = 2;
    c.l2.llc_skip = false;
    c.l2.slices = 4;
    c.l2.policy = StateKind::Exclusive;
    c.l2.index = IndexKind::Hashed;
    c.l2.replace = ReplaceKind::Random;
    c.dram.latency = 123;
    c.link_latency = 7;
    c.fast_forward = false;
    return c;
}

/** Apply @p keys, printed from @p from, to a default config. */
SoCConfig
rebuild(const std::vector<const ConfigKey *> &keys, const SoCConfig &from)
{
    SoCConfig c;
    for (const ConfigKey *k : keys)
        applyConfigKey(c, k->name, k->print(from));
    return c;
}

void
expectSameKeys(const SoCConfig &a, const SoCConfig &b)
{
    for (const ConfigKey &k : configKeys())
        EXPECT_EQ(k.print(a), k.print(b)) << k.name;
}

TEST(ConfigKeys, TableNamesTheSixteenSweepKnobsInOrder)
{
    std::vector<std::string> names;
    for (const ConfigKey &k : configKeys())
        names.push_back(k.name);
    EXPECT_EQ(names,
              (std::vector<std::string>{
                  "skipit", "coalesce", "cross_kind_coalesce",
                  "wide_data_array", "fshrs", "flush_queue_depth", "mshrs",
                  "llc_skip", "l2_slices", "l2_policy", "l2_index",
                  "l2_replace", "grant_data_dirty", "dram_latency",
                  "link_latency", "fast_forward"}));
}

TEST(ConfigKeys, DefaultPrintsNothingAndEveryKeyRoundTrips)
{
    const SoCConfig def;
    EXPECT_TRUE(changedConfigKeys(def).empty());
    for (const ConfigKey &k : configKeys()) {
        SoCConfig c;
        applyConfigKey(c, k.name, k.print(def));
        expectSameKeys(c, def);
    }
}

TEST(ConfigKeys, NonDefaultConfigRoundTripsInTableOrder)
{
    const SoCConfig want = nonDefault();
    const std::vector<const ConfigKey *> printed = changedConfigKeys(want);
    // Every key differs from the default, and skipit=0 clears
    // grant_data_dirty, so the later grant_data_dirty=1 is printed too.
    ASSERT_EQ(printed.size(), configKeys().size());
    EXPECT_EQ(printed.front()->print(want), "0");
    EXPECT_STREQ(printed[12]->name, "grant_data_dirty");
    EXPECT_EQ(printed[12]->print(want), "1");
    const SoCConfig got = rebuild(printed, want);
    expectSameKeys(got, want);
    EXPECT_FALSE(got.l1.skip_it);
    EXPECT_TRUE(got.l2.grant_data_dirty);
}

TEST(ConfigKeys, SkipItWithoutGrantDataDirtyPrintsOnlyThatKey)
{
    SoCConfig want;
    want.l2.grant_data_dirty = false;
    const std::vector<const ConfigKey *> printed = changedConfigKeys(want);
    ASSERT_EQ(printed.size(), 1u);
    EXPECT_STREQ(printed[0]->name, "grant_data_dirty");
    EXPECT_EQ(printed[0]->print(want), "0");
    expectSameKeys(rebuild(printed, want), want);

    // skipit=0 implies grant_data_dirty=0: one key rebuilds both.
    SoCConfig off;
    off.withSkipIt(false);
    ASSERT_EQ(changedConfigKeys(off).size(), 1u);
    EXPECT_STREQ(changedConfigKeys(off)[0]->name, "skipit");
}

TEST(ConfigKeys, OwnedKeysAreNeitherPrintedNorApplied)
{
    const std::string_view owned[] = {"skipit", "l2_slices"};
    const std::vector<const ConfigKey *> printed =
        changedConfigKeys(nonDefault(), owned);
    // With skipit not applied, the rebuilt grant_data_dirty keeps its
    // default (1), which already matches: that key is not needed either.
    ASSERT_EQ(printed.size(), configKeys().size() - 3);
    for (const ConfigKey *k : printed) {
        EXPECT_STRNE(k->name, "skipit");
        EXPECT_STRNE(k->name, "l2_slices");
        EXPECT_STRNE(k->name, "grant_data_dirty");
    }
}

TEST(ConfigKeys, EveryKeyRejectsMalformedTokensNamingItself)
{
    for (const ConfigKey &k : configKeys()) {
        for (const std::string bad :
             {"", "12abc", "-1", "1.5", " 1", "1 ", "bogus"}) {
            SoCConfig c;
            try {
                applyConfigKey(c, k.name, bad);
                ADD_FAILURE() << k.name << " accepted '" << bad << "'";
            } catch (const std::runtime_error &e) {
                EXPECT_EQ(std::string(e.what()).rfind(
                              std::string(k.name) + ": '" + bad + "'", 0),
                          0u)
                    << e.what();
            }
        }
    }
    SoCConfig c;
    EXPECT_THROW(applyConfigKey(c, "slicse", "4"), std::runtime_error);
}

TEST(ConfigKeys, SliceCountMustBeAPowerOfTwo)
{
    SoCConfig c;
    for (const char *bad : {"0", "3", "6", "12"}) {
        try {
            applyConfigKey(c, "l2_slices", bad);
            ADD_FAILURE() << "l2_slices accepted " << bad;
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()),
                      std::string("l2_slices: '") + bad +
                          "' is not a power of two");
        }
    }
    applyConfigKey(c, "l2_slices", "8");
    EXPECT_EQ(c.l2.slices, 8u);
}

TEST(ConfigKeys, NumberParsersReadWholeTokens)
{
    EXPECT_EQ(parseU64("n", "0x10"), 16u);
    EXPECT_EQ(parseU64("n", "18446744073709551615"), ~std::uint64_t{0});
    EXPECT_THROW(parseU64("n", "18446744073709551616"), std::runtime_error);
    EXPECT_THROW(parseU64("n", "0x"), std::runtime_error);
    EXPECT_THROW(parseU64("n", "+1"), std::runtime_error);
    EXPECT_THROW(parseUnsigned("n", "4294967296"), std::runtime_error);
    EXPECT_DOUBLE_EQ(parseF64("theta", "0.5"), 0.5);
    EXPECT_THROW(parseF64("theta", "0.5x"), std::runtime_error);
    EXPECT_THROW(parseF64("theta", "inf"), std::runtime_error);
    EXPECT_TRUE(parseFlag("f", "on"));
    EXPECT_FALSE(parseFlag("f", "false"));
    EXPECT_THROW(parseFlag("f", "2"), std::runtime_error);
}

/** Write @p config plus two one-line programs as a bundle directory. */
std::string
writeBundle(const std::string &name, const std::string &config)
{
    const std::string dir = ::testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::ofstream(dir + "/config.txt") << config;
    std::ofstream(dir + "/core0.s") << "store 0x90000 1\n";
    std::ofstream(dir + "/core1.s") << "store 0x90008 2\n";
    return dir;
}

/** A bundle as written before the table: every L2 key on its own line,
 *  defaults included. */
const char *const parent_bundle = R"(seed 7
harts 2
ops 120
lines 6
pool_base 0x90000
jitter 1
max_delay 12
max_cycles 2000000
fshrs 1
flush_queue_depth 8
l2_slices %SLICES%
l2_policy %POLICY%
l2_index %INDEX%
l2_replace %REPLACE%
break_probe_invalidate 1
crash_at 0
checker_differential 0
# resolved configuration:
# cores: 2
)";

std::string
parentBundle(const char *slices, const char *policy, const char *index,
             const char *replace)
{
    std::string s = parent_bundle;
    const auto sub = [&](const std::string &from, const char *to) {
        s.replace(s.find(from), from.size(), to);
    };
    sub("%SLICES%", slices);
    sub("%POLICY%", policy);
    sub("%INDEX%", index);
    sub("%REPLACE%", replace);
    return s;
}

TEST(ConfigKeys, ParentFormatBundleReadsIntoTheSameSpec)
{
    workloads::FuzzSpec want;
    want.fshrs = 1;
    want.flush_queue_depth = 8;
    want.break_probe_invalidate = true;

    const std::string dir = writeBundle(
        "cfgkeys_parent_default",
        parentBundle("1", "inclusive", "modulo", "lru"));
    std::vector<Program> programs;
    const auto [spec, seed] = workloads::readReplayBundle(dir, programs);
    EXPECT_EQ(seed, 7u);
    EXPECT_EQ(programs.size(), 2u);
    EXPECT_EQ(spec.harts, want.harts);
    EXPECT_EQ(spec.ops, want.ops);
    EXPECT_EQ(spec.lines, want.lines);
    EXPECT_EQ(spec.pool_base, want.pool_base);
    EXPECT_EQ(spec.jitter, want.jitter);
    EXPECT_EQ(spec.max_delay, want.max_delay);
    EXPECT_EQ(spec.max_cycles, want.max_cycles);
    EXPECT_EQ(spec.fshrs, 1u);
    EXPECT_EQ(spec.flush_queue_depth, 8u);
    EXPECT_TRUE(spec.break_probe_invalidate);
    EXPECT_EQ(spec.crash_at, 0u);
    EXPECT_FALSE(spec.checker_differential);
    EXPECT_TRUE(changedConfigKeys(spec.machine).empty());
    EXPECT_EQ(workloads::fuzzConfig(spec, seed).describe(),
              workloads::fuzzConfig(want, seed).describe());

    // The non-default L2 keys land in the machine.
    want.machine.l2.slices = 4;
    want.machine.l2.policy = StateKind::Exclusive;
    want.machine.l2.index = IndexKind::Hashed;
    want.machine.l2.replace = ReplaceKind::Random;
    const std::string dir2 = writeBundle(
        "cfgkeys_parent_policy",
        parentBundle("4", "exclusive", "hashed", "random"));
    const auto [spec2, seed2] = workloads::readReplayBundle(dir2, programs);
    expectSameKeys(spec2.machine, want.machine);
    EXPECT_EQ(workloads::fuzzConfig(spec2, seed2).describe(),
              workloads::fuzzConfig(want, seed2).describe());
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(dir2);
}

TEST(ConfigKeys, BundleWritesOnlyNonDefaultMachineKeys)
{
    workloads::FuzzSpec spec;
    spec.ops = 8;
    spec.machine = nonDefault();
    spec.machine.l1.fshrs = 2; // folded into the spec's own fshrs line
    spec.max_cycles = 200'000;
    workloads::FuzzFailure failure;
    failure.seed = 3;
    failure.kind = "none";
    failure.programs = workloads::generateFuzzPrograms(spec, 3);

    const std::string dir = ::testing::TempDir() + "/cfgkeys_write";
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(workloads::writeReplayBundle(spec, failure, dir));
    std::ifstream in(dir + "/config.txt");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("\nfshrs 2\nflush_queue_depth 5\nskipit 0\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("\nl2_policy exclusive\n"), std::string::npos);

    std::vector<Program> programs;
    const auto [rspec, rseed] = workloads::readReplayBundle(dir, programs);
    EXPECT_EQ(workloads::fuzzConfig(rspec, rseed).describe(),
              workloads::fuzzConfig(spec, 3).describe());
    std::filesystem::remove_all(dir);

    // A default machine writes no machine key at all.
    workloads::FuzzSpec plain;
    plain.ops = 8;
    plain.max_cycles = 200'000;
    failure.programs = workloads::generateFuzzPrograms(plain, 3);
    ASSERT_TRUE(workloads::writeReplayBundle(plain, failure, dir));
    std::ifstream in2(dir + "/config.txt");
    std::string text2((std::istreambuf_iterator<char>(in2)),
                      std::istreambuf_iterator<char>());
    EXPECT_NE(text2.find("\nflush_queue_depth 0\nbreak_probe_invalidate"),
              std::string::npos)
        << text2;
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace skipit
