/**
 * @file
 * Branch-prediction tests: saturating counters, bimodal, TAGE
 * pattern learning, loop predictor trip counts, BTB, RAS, and
 * the combined BPU's checkpoint/restore/repair protocol.
 */

#include <gtest/gtest.h>

#include "bp/bpu.h"
#include "bp/simple_predictors.h"

namespace spt {
namespace {

TEST(SatCounter, SaturatesBothWays)
{
    SatCounter c(2, 0);
    EXPECT_TRUE(c.saturatedLow());
    c.increment();
    c.increment();
    c.increment();
    c.increment();
    EXPECT_TRUE(c.saturatedHigh());
    EXPECT_EQ(c.value(), 3u);
    EXPECT_TRUE(c.taken());
    c.decrement();
    c.decrement();
    EXPECT_FALSE(c.taken());
}

TEST(Bimodal, LearnsBias)
{
    BimodalPredictor bp(10);
    const uint64_t pc = 0x40;
    for (int i = 0; i < 4; ++i)
        bp.update(pc, true);
    EXPECT_TRUE(bp.predict(pc));
    for (int i = 0; i < 8; ++i)
        bp.update(pc, false);
    EXPECT_FALSE(bp.predict(pc));
}

TEST(Tage, LearnsLongPattern)
{
    TagePredictor tage;
    const uint64_t pc = 0xbeef;
    // Period-7 pattern requires real history correlation. Use the
    // core's mispredict-recovery protocol (restore + replay the
    // actual outcome) to keep speculative history truthful.
    const bool pattern[7] = {true, true, false, true,
                             false, false, true};
    int correct = 0;
    BpCheckpoint cp;
    for (int i = 0; i < 2100; ++i) {
        const bool taken = pattern[i % 7];
        tage.checkpoint(cp);
        const bool pred = tage.predict(pc);
        if (pred != taken) {
            tage.restore(cp);
            tage.pushSpecBit(taken);
        }
        if (i >= 1400)
            correct += pred == taken;
        tage.update(pc, taken);
    }
    EXPECT_GT(correct, 630); // > 90% of the last 700
}

TEST(Tage, CheckpointRoundTrip)
{
    TagePredictor tage;
    for (int i = 0; i < 50; ++i) {
        tage.predict(i);
        tage.update(i, i % 3 == 0);
    }
    BpCheckpoint cp;
    tage.checkpoint(cp);
    // Wrong-path predictions...
    for (int i = 0; i < 20; ++i)
        tage.predict(1000 + i);
    tage.restore(cp);
    BpCheckpoint again;
    tage.checkpoint(again);
    EXPECT_EQ(again.words, cp.words);
    // Refilling a used checkpoint reuses its storage.
    const uint64_t *storage = again.words.data();
    tage.predict(7);
    tage.checkpoint(again);
    EXPECT_EQ(again.words.data(), storage);
    EXPECT_NE(again.words, cp.words);
}

TEST(LoopPredictor, LearnsTripCount)
{
    LoopPredictor lp;
    const uint64_t pc = 0x77;
    // A loop that runs exactly 5 taken iterations then exits.
    for (int trip = 0; trip < 6; ++trip) {
        for (int i = 0; i < 5; ++i)
            lp.update(pc, true);
        lp.update(pc, false);
    }
    EXPECT_TRUE(lp.confident(pc));
    EXPECT_EQ(lp.tripCount(pc), 5u);
    // Align the speculative iteration counter (as the core does
    // after a squash) and check the predicted pattern.
    lp.resyncSpeculative();
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(lp.predict(pc), std::make_optional(true));
    EXPECT_EQ(lp.predict(pc), std::make_optional(false));
}

TEST(LoopPredictor, IrregularLoopLosesConfidence)
{
    LoopPredictor lp;
    const uint64_t pc = 0x99;
    unsigned trips[] = {5, 7, 5, 3, 6, 4};
    for (unsigned t : trips) {
        for (unsigned i = 0; i < t; ++i)
            lp.update(pc, true);
        lp.update(pc, false);
    }
    EXPECT_FALSE(lp.confident(pc));
}

TEST(Btb, StoresAndEvicts)
{
    Btb btb(16, 2);
    EXPECT_FALSE(btb.lookup(100).has_value());
    btb.update(100, 555);
    EXPECT_EQ(btb.lookup(100), std::make_optional<uint64_t>(555));
    btb.update(100, 777); // refresh target
    EXPECT_EQ(btb.lookup(100), std::make_optional<uint64_t>(777));
    // Fill the set (pcs aliasing set 100 % 16 == 4): 2 ways.
    btb.update(100 + 16, 1);
    btb.update(100 + 32, 2); // evicts LRU (pc 100)
    EXPECT_FALSE(btb.lookup(100).has_value());
    EXPECT_TRUE(btb.lookup(100 + 16).has_value());
}

TEST(Ras, PushPopAndCheckpoint)
{
    ReturnAddressStack ras;
    EXPECT_TRUE(ras.empty());
    EXPECT_EQ(ras.pop(), 0u); // empty pop is benign
    ras.push(10);
    ras.push(20);
    const auto cp = ras.checkpoint();
    ras.push(30);
    EXPECT_EQ(ras.pop(), 30u);
    EXPECT_EQ(ras.pop(), 20u);
    ras.restore(cp);
    EXPECT_EQ(ras.pop(), 20u);
    EXPECT_EQ(ras.pop(), 10u);
    EXPECT_TRUE(ras.empty());
}

TEST(Ras, WrapsAtCapacity)
{
    ReturnAddressStack ras;
    for (unsigned i = 0; i < ReturnAddressStack::kCapacity + 5; ++i)
        ras.push(i);
    EXPECT_EQ(ras.depth(), ReturnAddressStack::kCapacity);
    EXPECT_EQ(ras.pop(), ReturnAddressStack::kCapacity + 4);
}

TEST(Bpu, CallReturnPrediction)
{
    BranchPredictorUnit bpu;
    const Instruction call{Opcode::kJal, kRegRa, 0, 0, 100};
    const Instruction ret{Opcode::kJalr, kRegZero, kRegRa, 0, 0};
    EXPECT_TRUE(BranchPredictorUnit::isCall(call));
    EXPECT_TRUE(BranchPredictorUnit::isReturn(ret));

    auto p = bpu.predict(10, call);
    EXPECT_EQ(p.next_pc, 110u);
    p = bpu.predict(110, ret); // predicted return to call+1
    EXPECT_EQ(p.next_pc, 11u);
}

TEST(Bpu, IndirectUsesBtbAfterTraining)
{
    BranchPredictorUnit bpu;
    const Instruction ind{Opcode::kJalr, kRegZero, 5, 0, 0};
    // Untrained: falls through.
    auto p = bpu.predict(50, ind);
    EXPECT_EQ(p.next_pc, 51u);
    bpu.commitUpdate(50, ind, true, 400);
    p = bpu.predict(50, ind);
    EXPECT_EQ(p.next_pc, 400u);
}

TEST(Bpu, RestoreAndRepairAfterMispredict)
{
    BranchPredictorUnit bpu;
    const Instruction br{Opcode::kBeq, 0, 1, 2, 8};
    BranchPredictorUnit::Checkpoint cp;
    bpu.checkpoint(cp);
    bpu.predict(30, br); // speculative history advanced
    // Mispredict: restore pre-prediction state, replay actual.
    bpu.restore(cp);
    bpu.repair(30, br, true);
    // A call on the wrong path must not survive the restore.
    const Instruction call{Opcode::kJal, kRegRa, 0, 0, 5};
    bpu.checkpoint(cp);
    bpu.predict(40, call);
    bpu.restore(cp);
    const Instruction ret{Opcode::kJalr, kRegZero, kRegRa, 0, 0};
    auto p = bpu.predict(99, ret);
    EXPECT_EQ(p.next_pc, 100u); // empty RAS: fall through
}

} // namespace
} // namespace spt
