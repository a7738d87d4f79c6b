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
#include "workloads/workloads.h"

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

// 128 seeds x 2 attack models = 256 fuzzed programs, exceeding the
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
    runSeeds(1, 128, kSmall, AttackModel::kSpectre, totals);
    report("spectre", totals);
}

TEST(StaticDifferential, FuturisticModelRobustClaimsNeverDenied)
{
    Totals totals;
    runSeeds(1, 128, kSmall, AttackModel::kFuturistic, totals);
    report("futuristic", totals);
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

TEST(StaticDifferential, RobustClaimsHoldAtCommitOnPchase)
{
    // A full bundled workload rather than a fuzzed one: every robust
    // claim of the analysis holds when its reader retires.
    const Program p = workloadByName("pchase").program;
    const Cfg cfg(p);
    const KnowledgeAnalysis analysis(cfg);
    DifferentialConfig config;
    config.attack_model = AttackModel::kSpectre;
    const DifferentialResult res = runDifferential(p, analysis, config);
    EXPECT_TRUE(res.halted);
    EXPECT_GT(res.robust_checked, 0u) << "check is vacuous";
    EXPECT_EQ(res.robust_denied, 0u) << [&] {
        std::string joined;
        for (const std::string &line : res.log)
            joined += line + "\n";
        return joined;
    }();
}

} // namespace
} // namespace spt
