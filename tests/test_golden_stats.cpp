/**
 * @file
 * Golden-stats invariance: the untaint.* counters of the golden
 * workload suite under SPT{Backward,ShadowL1} must match the
 * recorded baseline exactly. The SPT untaint machinery is specified
 * cycle-accurately (Section 7.3's phase ordering and arbitration),
 * so any implementation or performance change that shifts these
 * counters changed observable behavior — either a bug or a semantic
 * change that must be justified and re-recorded
 * (tools/record_golden_stats, see golden_untaint_stats.inc).
 *
 * A second, wider pin covers every counter of every StatSet under
 * every engine: the FNV-1a hash of the whole stats.txt
 * (Simulator::dumpStats) of each golden case under each Table-2
 * config must match golden_stats_hashes.inc
 * (record_golden_stats --stats-hashes). Host-side rewrites of the
 * core, the engines or the memory system must leave it unchanged.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "workloads/golden_suite.h"

namespace spt {
namespace {

using CounterMap = std::map<std::string, uint64_t>;

const std::vector<std::pair<std::string, CounterMap>> &
goldenCounters()
{
    static const std::vector<std::pair<std::string, CounterMap>> g = {
#include "golden_untaint_stats.inc"
    };
    return g;
}

CounterMap
runCase(const GoldenCase &c)
{
    SimConfig cfg;
    cfg.engine.scheme = ProtectionScheme::kSpt;
    cfg.engine.spt.method = UntaintMethod::kBackward;
    cfg.engine.spt.shadow = ShadowKind::kShadowL1;
    cfg.core.attack_model = c.model;
    Simulator sim(c.program, cfg);
    const SimResult res = sim.run();
    EXPECT_TRUE(res.halted) << c.name;
    CounterMap out;
    for (const auto &[name, value] :
         sim.core().engine().stats().counters()) {
        if (name.rfind("untaint.", 0) == 0)
            out[name] = value;
    }
    return out;
}

class GoldenStatsTest : public testing::TestWithParam<size_t>
{
};

TEST_P(GoldenStatsTest, UntaintCountersMatchBaseline)
{
    const GoldenCase &c = goldenSuite().at(GetParam());
    const auto &expected = goldenCounters().at(GetParam());
    ASSERT_EQ(expected.first, c.name)
        << "golden_untaint_stats.inc is out of sync with the suite; "
           "regenerate with tools/record_golden_stats";
    const CounterMap actual = runCase(c);
    // Compare complete maps: a counter appearing or disappearing is
    // as much a divergence as a changed value.
    EXPECT_EQ(actual, expected.second) << c.name;
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
    All, GoldenStatsTest,
    testing::Range<size_t>(0, goldenSuite().size()), caseName);

TEST(GoldenStats, BaselineCoversWholeSuite)
{
    ASSERT_EQ(goldenCounters().size(), goldenSuite().size());
}

// ---------------------------------------------------------------
// Whole-stats pin: every golden case under every Table-2 config
// ---------------------------------------------------------------

struct StatsHash {
    const char *case_name;
    const char *config;
    uint64_t hash;
};

const std::vector<StatsHash> &
goldenStatsHashes()
{
    static const std::vector<StatsHash> g = {
#include "golden_stats_hashes.inc"
    };
    return g;
}

uint64_t
fnv1a(const std::string &text)
{
    uint64_t h = 1469598103934665603ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

/** Parameter i runs case i / #configs under config i % #configs,
 *  the order record_golden_stats --stats-hashes emits. */
class GoldenStatsHashTest : public testing::TestWithParam<size_t>
{
};

TEST_P(GoldenStatsHashTest, WholeStatsMatchBaseline)
{
    const std::vector<NamedConfig> configs = table2Configs();
    const GoldenCase &c = goldenSuite().at(GetParam() / configs.size());
    const NamedConfig &nc = configs.at(GetParam() % configs.size());
    const StatsHash &expected = goldenStatsHashes().at(GetParam());
    ASSERT_EQ(expected.case_name, c.name)
        << "golden_stats_hashes.inc is out of sync with the suite; "
           "regenerate with record_golden_stats --stats-hashes";
    ASSERT_EQ(expected.config, nc.name)
        << "golden_stats_hashes.inc is out of sync with "
           "table2Configs(); regenerate with record_golden_stats "
           "--stats-hashes";
    SimConfig cfg;
    cfg.engine = nc.engine;
    cfg.core.attack_model = c.model;
    Simulator sim(c.program, cfg);
    EXPECT_TRUE(sim.run().halted) << c.name;
    std::ostringstream stats;
    sim.dumpStats(stats);
    EXPECT_EQ(fnv1a(stats.str()), expected.hash)
        << c.name << " under " << nc.name
        << " diverged from the recorded stats; its stats.txt:\n"
        << stats.str();
}

std::string
statsCaseName(const testing::TestParamInfo<size_t> &info)
{
    const std::vector<NamedConfig> configs = table2Configs();
    std::string n = goldenSuite().at(info.param / configs.size()).name +
                    "_" + configs.at(info.param % configs.size()).name;
    // gtest names allow only [A-Za-z0-9_]: "SPT{Bwd,ShadowL1}"
    // becomes "SPT_Bwd_ShadowL1".
    for (char &ch : n)
        if (!std::isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    while (n.back() == '_')
        n.pop_back();
    return n;
}

INSTANTIATE_TEST_SUITE_P(
    All, GoldenStatsHashTest,
    testing::Range<size_t>(0, goldenSuite().size() *
                                  table2Configs().size()),
    statsCaseName);

TEST(GoldenStats, StatsHashesCoverSuiteTimesConfigs)
{
    ASSERT_EQ(goldenStatsHashes().size(),
              goldenSuite().size() * table2Configs().size());
}

} // namespace
} // namespace spt
