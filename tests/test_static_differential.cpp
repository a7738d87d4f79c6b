/**
 * @file
 * Differential soundness harness (static vs dynamic): fuzzes
 * programs, runs the static knowledge-propagation pass, then
 * executes each program on the out-of-order core under an
 * ideal-untaint `SptEngine` and checks every static claim at commit.
 * A kRobust claim the dynamic engine denies is a soundness bug in
 * one of the two sides and fails the test; kWindowed denials are
 * only a precision/timing metric and are reported, not asserted.
 */

#include <iostream>

#include <gtest/gtest.h>

#include "analysis/cfg.h"
#include "analysis/differential.h"
#include "analysis/knowledge_analysis.h"
#include "isa/program_fuzzer.h"

namespace spt {
namespace {

struct Totals {
    uint64_t programs = 0;
    uint64_t robust_checked = 0;
    uint64_t windowed_checked = 0;
    uint64_t windowed_denied = 0;
};

void
runSeeds(uint64_t first_seed, unsigned count,
         const FuzzConfig &fuzz, AttackModel model, Totals &totals)
{
    // The whole campaign runs on the parallel sweep runner
    // (config.jobs = 0: SPT_JOBS env, then hardware concurrency);
    // per-program results are slot-indexed by seed, so the
    // assertions below see identical data for any worker count.
    DifferentialConfig config;
    config.attack_model = model;
    const DifferentialSweepResult sweep =
        runDifferentialSweep(first_seed, count, fuzz, config);

    ASSERT_EQ(sweep.per_program.size(), count);
    for (unsigned i = 0; i < count; ++i) {
        const DifferentialResult &res = sweep.per_program[i];
        const uint64_t seed = first_seed + i;
        EXPECT_TRUE(res.halted) << "seed " << seed;
        EXPECT_EQ(res.robust_denied, 0u)
            << "seed " << seed << " model "
            << (model == AttackModel::kSpectre ? "spectre"
                                               : "futuristic")
            << "\n"
            << [&] {
                   std::string joined;
                   for (const std::string &line : res.log)
                       joined += line + "\n";
                   return joined;
               }();
    }

    totals.programs += sweep.programs;
    totals.robust_checked += sweep.robust_checked;
    totals.windowed_checked += sweep.windowed_checked;
    totals.windowed_denied += sweep.windowed_denied;
}

void
report(const char *name, const Totals &totals)
{
    // The static pass must actually claim something, or the
    // "0 denials" result would be vacuous.
    EXPECT_GT(totals.robust_checked, 0u);
    const double rate =
        totals.windowed_checked == 0
            ? 0.0
            : static_cast<double>(totals.windowed_denied) /
                  static_cast<double>(totals.windowed_checked);
    std::cout << "[differential] " << name << ": "
              << totals.programs << " programs, "
              << totals.robust_checked
              << " robust claims (0 denied), "
              << totals.windowed_checked
              << " windowed claims, denial rate " << rate << "\n";
}

// 120 seeds x 2 attack models = 240 fuzzed programs, exceeding the
// 200-program acceptance floor, with a compact FuzzConfig so the
// whole sweep stays inside tier-1 time budgets.
constexpr FuzzConfig kSmall{
    /*num_blocks=*/8,
    /*block_len=*/6,
    /*loop_iterations=*/8,
};

TEST(StaticDifferential, SpectreModelRobustClaimsNeverDenied)
{
    Totals totals;
    runSeeds(1, 120, kSmall, AttackModel::kSpectre, totals);
    report("spectre", totals);
}

TEST(StaticDifferential, FuturisticModelRobustClaimsNeverDenied)
{
    Totals totals;
    runSeeds(1, 120, kSmall, AttackModel::kFuturistic, totals);
    report("futuristic", totals);
}

// ---------------------------------------------------------------
// Knowledge-map soundness gate (DESIGN.md §13): every fact of the
// emitted map is checked against the ideal-untaint engine at commit
// (hard denial). 128 seeds x 2 models = 256 programs.
// ---------------------------------------------------------------

void
runMapSeeds(uint64_t first_seed, unsigned count, AttackModel model,
            MapDifferentialSweepResult &out)
{
    DifferentialConfig config;
    config.attack_model = model;
    const MapDifferentialSweepResult sweep =
        runMapDifferentialSweep(first_seed, count, kSmall, config);
    ASSERT_EQ(sweep.per_program.size(), count);
    for (unsigned i = 0; i < count; ++i) {
        const MapDifferentialResult &res = sweep.per_program[i];
        const uint64_t seed = first_seed + i;
        EXPECT_TRUE(res.halted) << "seed " << seed;
        EXPECT_EQ(res.robust_denied, 0u)
            << "seed " << seed << "\n"
            << [&] {
                   std::string joined;
                   for (const std::string &line : res.log)
                       joined += line + "\n";
                   return joined;
               }();
    }
    out = sweep;
}

TEST(StaticDifferential, MapPreclearNeverDeniedSpectre)
{
    MapDifferentialSweepResult sweep;
    runMapSeeds(1, 128, AttackModel::kSpectre, sweep);
    EXPECT_EQ(sweep.robust_denied, 0u);
    EXPECT_EQ(sweep.unhalted, 0u);
    EXPECT_GT(sweep.robust_checked, 0u) << "gate is vacuous";
    EXPECT_GT(sweep.map_facts, 0u);
    std::cout << "[map-differential] spectre: " << sweep.programs
              << " programs, " << sweep.map_facts << " facts, "
              << sweep.robust_checked << " checked (0 denied)\n";
}

TEST(StaticDifferential, MapPreclearNeverDeniedFuturistic)
{
    MapDifferentialSweepResult sweep;
    runMapSeeds(1, 128, AttackModel::kFuturistic, sweep);
    EXPECT_EQ(sweep.robust_denied, 0u);
    EXPECT_EQ(sweep.unhalted, 0u);
    EXPECT_GT(sweep.robust_checked, 0u) << "gate is vacuous";
    EXPECT_GT(sweep.map_facts, 0u);
    std::cout << "[map-differential] futuristic: " << sweep.programs
              << " programs, " << sweep.map_facts << " facts, "
              << sweep.robust_checked << " checked (0 denied)\n";
}

TEST(StaticDifferential, DefaultFuzzConfigSpotChecks)
{
    // A few full-size programs (more blocks, branchier, longer
    // loops) at both models to cover shapes the compact config
    // cannot generate.
    for (const AttackModel model :
         {AttackModel::kSpectre, AttackModel::kFuturistic}) {
        Totals totals;
        runSeeds(1000, 8, FuzzConfig{}, model, totals);
        report(model == AttackModel::kSpectre
                   ? "spectre/default"
                   : "futuristic/default",
               totals);
    }
}

} // namespace
} // namespace spt
