/**
 * @file
 * Fast-forward equivalence (skipping quiescent cycles must be
 * invisible in every simulated number):
 *
 *  - CoreParams::fast_forward on vs. off over the whole golden
 *    workload suite: identical SimResult and identical counters and
 *    histograms across every StatSet (core, engine, memory, bpu) —
 *    the only permitted difference is the ff.* skip telemetry
 *    itself.
 *  - The skip machinery genuinely fires somewhere in the suite
 *    (otherwise the equivalence above would be vacuous).
 *  - Fast-forward equivalence for the non-SPT engines (unsafe /
 *    secure baseline / STT), whose blocked-transmit accruals take a
 *    different path.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "workloads/golden_suite.h"

namespace spt {
namespace {

using CounterMap = std::map<std::string, uint64_t>;

struct MachineNumbers {
    SimResult result;
    CounterMap core;   ///< ff.* stripped (see stripFf)
    CounterMap engine;
    CounterMap mem;
    CounterMap bpu;
    std::map<std::string, Histogram> engine_histograms;
    uint64_t ff_skipped = 0;
    uint64_t ff_windows = 0;
};

/** The ff.* counters are telemetry about the *skipping itself* and
 *  by construction exist only in fast-forwarding runs; every other
 *  number must be bit-identical. */
CounterMap
stripFf(const StatSet &s, uint64_t *skipped = nullptr,
        uint64_t *windows = nullptr)
{
    CounterMap out;
    for (const auto &[name, value] : s.counters()) {
        if (name.rfind("ff.", 0) == 0) {
            if (skipped && name == "ff.skipped_cycles")
                *skipped = value;
            if (windows && name == "ff.windows")
                *windows = value;
            continue;
        }
        out[name] = value;
    }
    return out;
}

MachineNumbers
runMachine(const Program &program, const SimConfig &cfg)
{
    Simulator sim(program, cfg);
    MachineNumbers n;
    n.result = sim.run();
    Core &core = sim.core();
    n.core = stripFf(core.stats(), &n.ff_skipped, &n.ff_windows);
    n.engine = core.engine().stats().counters();
    n.engine_histograms = core.engine().stats().histograms();
    n.mem = core.memorySystem().stats().counters();
    n.bpu = core.bpu().stats().counters();
    return n;
}

void
expectIdentical(const MachineNumbers &a, const MachineNumbers &b,
                const std::string &what)
{
    EXPECT_EQ(a.result.cycles, b.result.cycles) << what;
    EXPECT_EQ(a.result.instructions, b.result.instructions) << what;
    EXPECT_EQ(a.result.halted, b.result.halted) << what;
    EXPECT_EQ(a.result.termination, b.result.termination) << what;
    EXPECT_EQ(a.core, b.core) << what;
    EXPECT_EQ(a.engine, b.engine) << what;
    EXPECT_EQ(a.mem, b.mem) << what;
    EXPECT_EQ(a.bpu, b.bpu) << what;
    ASSERT_EQ(a.engine_histograms.size(), b.engine_histograms.size())
        << what;
    auto ita = a.engine_histograms.begin();
    auto itb = b.engine_histograms.begin();
    for (; ita != a.engine_histograms.end(); ++ita, ++itb) {
        EXPECT_EQ(ita->first, itb->first) << what;
        ASSERT_EQ(ita->second.numBuckets(), itb->second.numBuckets())
            << what << " " << ita->first;
        EXPECT_EQ(ita->second.samples(), itb->second.samples())
            << what << " " << ita->first;
        for (size_t i = 0; i < ita->second.numBuckets(); ++i)
            EXPECT_EQ(ita->second.bucket(i), itb->second.bucket(i))
                << what << " " << ita->first << " bucket " << i;
    }
}

SimConfig
sptConfig(const GoldenCase &c)
{
    SimConfig cfg;
    cfg.engine.scheme = ProtectionScheme::kSpt;
    cfg.engine.spt.method = UntaintMethod::kBackward;
    cfg.engine.spt.shadow = ShadowKind::kShadowL1;
    cfg.core.attack_model = c.model;
    return cfg;
}

class FastForwardGoldenTest : public testing::TestWithParam<size_t>
{
};

TEST_P(FastForwardGoldenTest, SkippingAndStorageAreInvisible)
{
    const GoldenCase &c = goldenSuite().at(GetParam());

    SimConfig base_cfg = sptConfig(c);
    const MachineNumbers base = runMachine(c.program, base_cfg);
    EXPECT_TRUE(base.result.halted) << c.name;
    EXPECT_EQ(base.ff_skipped, 0u) << c.name;

    // Fast-forward on: identical numbers, only ff.* telemetry may
    // (and should, somewhere in the suite) appear.
    SimConfig ff_cfg = base_cfg;
    ff_cfg.core.fast_forward = true;
    const MachineNumbers ff = runMachine(c.program, ff_cfg);
    expectIdentical(base, ff, c.name + "/fast-forward");
}

std::string
caseName(const testing::TestParamInfo<size_t> &info)
{
    std::string n = goldenSuite().at(info.param).name;
    for (char &ch : n)
        if (ch == '/' || ch == '-')
            ch = '_';
    return n;
}

INSTANTIATE_TEST_SUITE_P(
    All, FastForwardGoldenTest,
    testing::Range<size_t>(0, goldenSuite().size()), caseName);

TEST(FastForward, ActuallySkipsCyclesSomewhere)
{
    uint64_t skipped = 0, windows = 0;
    for (const GoldenCase &c : goldenSuite()) {
        SimConfig cfg = sptConfig(c);
        cfg.core.fast_forward = true;
        const MachineNumbers n = runMachine(c.program, cfg);
        skipped += n.ff_skipped;
        windows += n.ff_windows;
        if (skipped > 0)
            break; // evidence found; no need to run the rest
    }
    EXPECT_GT(skipped, 0u)
        << "fast-forward never skipped a cycle across the golden "
           "suite — the equivalence tests are vacuous";
    EXPECT_GT(windows, 0u);
}

TEST(FastForward, EquivalentForNonSptEngines)
{
    const GoldenCase &c = goldenSuite().at(0);
    for (ProtectionScheme scheme :
         {ProtectionScheme::kUnsafeBaseline,
          ProtectionScheme::kSecureBaseline, ProtectionScheme::kStt}) {
        SimConfig cfg;
        cfg.engine.scheme = scheme;
        cfg.core.attack_model = c.model;
        const MachineNumbers base = runMachine(c.program, cfg);
        SimConfig ff_cfg = cfg;
        ff_cfg.core.fast_forward = true;
        const MachineNumbers ff = runMachine(c.program, ff_cfg);
        expectIdentical(base, ff,
                        std::string("scheme ") +
                            std::to_string(static_cast<int>(scheme)));
    }
}

// Fast-forward models only the unmutated policy: the chaos-mode gate
// mutations must disable it (pinned here so a future mutation does
// not silently fast-forward into wrong numbers).
TEST(FastForward, RefusedUnderPolicyMutations)
{
    const GoldenCase &c = goldenSuite().at(0);
    SimConfig cfg = sptConfig(c);
    cfg.core.fast_forward = true;
    cfg.engine.spt.mutation = SptConfig::Mutation::kLeakyMemGate;
    const MachineNumbers n = runMachine(c.program, cfg);
    EXPECT_EQ(n.ff_skipped, 0u);
    EXPECT_EQ(n.ff_windows, 0u);
}

} // namespace
} // namespace spt
