/**
 * @file
 * Unit and property tests for the TRISC ISA: opcode traits
 * invariants, functional semantics, load finishing, binary encoding
 * round trips, register-name parsing, and the pinned program
 * fingerprint.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "isa/encoding.h"
#include "isa/instruction.h"
#include "isa/program.h"
#include "isa/semantics.h"
#include "workloads/workloads.h"

namespace spt {
namespace {

std::vector<Opcode>
everyOpcode()
{
    std::vector<Opcode> ops;
    for (size_t i = 0; i < static_cast<size_t>(Opcode::kNumOpcodes);
         ++i)
        ops.push_back(static_cast<Opcode>(i));
    return ops;
}

// --------------------------------------------------------------------
// Traits invariants (property-style over all opcodes)
// --------------------------------------------------------------------

class OpcodeTraits : public ::testing::TestWithParam<Opcode>
{
};

TEST_P(OpcodeTraits, Consistent)
{
    const Opcode op = GetParam();
    const OpTraits &t = opTraits(op);
    EXPECT_FALSE(t.mnemonic.empty());
    // Memory size iff memory op.
    EXPECT_EQ(t.mem_bytes != 0, t.is_load || t.is_store);
    // Loads have a dest and one source; stores have two sources and
    // no dest.
    if (t.is_load) {
        EXPECT_TRUE(t.has_dest);
        EXPECT_EQ(t.num_srcs, 1);
    }
    if (t.is_store) {
        EXPECT_FALSE(t.has_dest);
        EXPECT_EQ(t.num_srcs, 2);
    }
    // Control flow never both conditional and jump.
    EXPECT_FALSE(t.is_cond_branch && t.is_jump);
    if (t.is_cond_branch) {
        EXPECT_EQ(t.num_srcs, 2);
    }
    // Transmitters are exactly the memory ops.
    EXPECT_EQ(isTransmitter(op), t.is_load || t.is_store);
    // Untaint classes constrain source counts.
    if (t.untaint_class == UntaintClass::kCopy) {
        EXPECT_EQ(t.num_srcs, 1);
    }
    if (t.untaint_class == UntaintClass::kInvertible) {
        EXPECT_GE(t.num_srcs, 1);
    }
    EXPECT_LE(t.num_srcs, 2);
}

INSTANTIATE_TEST_SUITE_P(All, OpcodeTraits,
                         ::testing::ValuesIn(everyOpcode()),
                         [](const auto &info) {
                             std::string n(mnemonic(info.param));
                             return n;
                         });

// --------------------------------------------------------------------
// Semantics
// --------------------------------------------------------------------

uint64_t
alu(Opcode op, uint64_t a, uint64_t b, int64_t imm = 0)
{
    Instruction inst{op, 1, 2, 3, imm};
    return evaluateOp(inst, 0, a, b).value;
}

TEST(Semantics, Arithmetic)
{
    EXPECT_EQ(alu(Opcode::kAdd, 3, 4), 7u);
    EXPECT_EQ(alu(Opcode::kSub, 3, 4), static_cast<uint64_t>(-1));
    EXPECT_EQ(alu(Opcode::kMul, 7, 6), 42u);
    EXPECT_EQ(alu(Opcode::kNeg, 5, 0), static_cast<uint64_t>(-5));
    EXPECT_EQ(alu(Opcode::kNot, 0, 0), ~uint64_t{0});
    EXPECT_EQ(alu(Opcode::kMov, 99, 0), 99u);
}

TEST(Semantics, MulHigh)
{
    // (2^32)^2 = 2^64 => high half 1.
    EXPECT_EQ(alu(Opcode::kMulh, 1ull << 32, 1ull << 32), 1u);
    // -1 * -1 = 1 => high half 0.
    EXPECT_EQ(alu(Opcode::kMulh, ~uint64_t{0}, ~uint64_t{0}), 0u);
}

TEST(Semantics, DivisionRiscvEdgeCases)
{
    EXPECT_EQ(alu(Opcode::kDiv, 7, 2), 3u);
    EXPECT_EQ(alu(Opcode::kDiv, static_cast<uint64_t>(-7), 2),
              static_cast<uint64_t>(-3));
    // Divide by zero: all ones / dividend.
    EXPECT_EQ(alu(Opcode::kDiv, 5, 0), ~uint64_t{0});
    EXPECT_EQ(alu(Opcode::kRem, 5, 0), 5u);
    // INT64_MIN / -1 overflow.
    const uint64_t min = uint64_t{1} << 63;
    EXPECT_EQ(alu(Opcode::kDiv, min, static_cast<uint64_t>(-1)),
              min);
    EXPECT_EQ(alu(Opcode::kRem, min, static_cast<uint64_t>(-1)), 0u);
}

TEST(Semantics, ShiftsMaskAmount)
{
    EXPECT_EQ(alu(Opcode::kSll, 1, 65), 2u); // 65 & 63 == 1
    EXPECT_EQ(alu(Opcode::kSrl, 0x8000000000000000ull, 63), 1u);
    EXPECT_EQ(alu(Opcode::kSra, 0x8000000000000000ull, 63),
              ~uint64_t{0});
    EXPECT_EQ(alu(Opcode::kSrai, 0xf0, 0, 4), 0xfu);
}

TEST(Semantics, Comparisons)
{
    EXPECT_EQ(alu(Opcode::kSlt, static_cast<uint64_t>(-1), 0), 1u);
    EXPECT_EQ(alu(Opcode::kSltu, static_cast<uint64_t>(-1), 0), 0u);
    EXPECT_EQ(alu(Opcode::kMin, static_cast<uint64_t>(-5), 3),
              static_cast<uint64_t>(-5));
    EXPECT_EQ(alu(Opcode::kMinu, static_cast<uint64_t>(-5), 3), 3u);
    EXPECT_EQ(alu(Opcode::kMax, static_cast<uint64_t>(-5), 3), 3u);
    EXPECT_EQ(alu(Opcode::kMaxu, static_cast<uint64_t>(-5), 3),
              static_cast<uint64_t>(-5));
}

TEST(Semantics, Branches)
{
    Instruction beq{Opcode::kBeq, 0, 1, 2, 10};
    auto r = evaluateOp(beq, 100, 5, 5);
    EXPECT_TRUE(r.is_taken);
    EXPECT_EQ(r.target, 110u);
    r = evaluateOp(beq, 100, 5, 6);
    EXPECT_FALSE(r.is_taken);

    Instruction blt{Opcode::kBlt, 0, 1, 2, -20};
    r = evaluateOp(blt, 100, static_cast<uint64_t>(-1), 0);
    EXPECT_TRUE(r.is_taken);
    EXPECT_EQ(r.target, 80u);
    Instruction bltu{Opcode::kBltu, 0, 1, 2, -20};
    r = evaluateOp(bltu, 100, static_cast<uint64_t>(-1), 0);
    EXPECT_FALSE(r.is_taken);
}

TEST(Semantics, Jumps)
{
    Instruction jal{Opcode::kJal, 1, 0, 0, 50};
    auto r = evaluateOp(jal, 10, 0, 0);
    EXPECT_TRUE(r.is_taken);
    EXPECT_EQ(r.target, 60u);
    EXPECT_EQ(r.value, 11u); // link

    Instruction jalr{Opcode::kJalr, 1, 2, 0, 3};
    r = evaluateOp(jalr, 10, 200, 0);
    EXPECT_EQ(r.target, 203u);
    EXPECT_EQ(r.value, 11u);
}

TEST(Semantics, MemAddressing)
{
    Instruction ld{Opcode::kLd, 1, 2, 0, -8};
    auto r = evaluateOp(ld, 0, 0x1000, 0);
    EXPECT_EQ(r.mem_addr, 0xff8u);

    Instruction sd{Opcode::kSd, 0, 2, 3, 16};
    r = evaluateOp(sd, 0, 0x1000, 0xabcd);
    EXPECT_EQ(r.mem_addr, 0x1010u);
    EXPECT_EQ(r.value, 0xabcdu); // store data
}

TEST(Semantics, FinishLoadSignAndZeroExtension)
{
    EXPECT_EQ(finishLoad(Opcode::kLb, 0x80), static_cast<uint64_t>(-128));
    EXPECT_EQ(finishLoad(Opcode::kLbu, 0x80), 0x80u);
    EXPECT_EQ(finishLoad(Opcode::kLh, 0x8000),
              static_cast<uint64_t>(-32768));
    EXPECT_EQ(finishLoad(Opcode::kLhu, 0x8000), 0x8000u);
    EXPECT_EQ(finishLoad(Opcode::kLw, 0x80000000ull),
              0xffffffff80000000ull);
    EXPECT_EQ(finishLoad(Opcode::kLwu, 0x80000000ull), 0x80000000ull);
    EXPECT_EQ(finishLoad(Opcode::kLd, 0x123456789abcdef0ull),
              0x123456789abcdef0ull);
}

// --------------------------------------------------------------------
// Encoding round trip (randomized property)
// --------------------------------------------------------------------

TEST(Encoding, RoundTripRandomInstructions)
{
    Rng rng(0xe4c0de);
    for (int i = 0; i < 2000; ++i) {
        Instruction inst;
        inst.op = static_cast<Opcode>(rng.nextBelow(
            static_cast<uint64_t>(Opcode::kNumOpcodes)));
        inst.rd = static_cast<uint8_t>(rng.nextBelow(kNumArchRegs));
        inst.rs1 = static_cast<uint8_t>(rng.nextBelow(kNumArchRegs));
        inst.rs2 = static_cast<uint8_t>(rng.nextBelow(kNumArchRegs));
        inst.imm = static_cast<int64_t>(rng.next());
        EXPECT_EQ(decode(encode(inst)), inst);
    }
}

TEST(Encoding, RejectsMalformed)
{
    EncodedInstruction enc;
    enc.bytes[0] = 0xff; // bad opcode
    EXPECT_THROW(decode(enc), FatalError);
    enc = encode({Opcode::kAdd, 1, 2, 3, 0});
    enc.bytes[1] = 200; // bad register
    EXPECT_THROW(decode(enc), FatalError);
    enc = encode({Opcode::kAdd, 1, 2, 3, 0});
    enc.bytes[15] = 1; // nonzero reserved byte
    EXPECT_THROW(decode(enc), FatalError);
}

// --------------------------------------------------------------------
// Register names
// --------------------------------------------------------------------

TEST(Registers, ParseNamesAndAliases)
{
    EXPECT_EQ(parseRegister("x0"), 0);
    EXPECT_EQ(parseRegister("x31"), 31);
    EXPECT_EQ(parseRegister("zero"), 0);
    EXPECT_EQ(parseRegister("ra"), 1);
    EXPECT_EQ(parseRegister("sp"), 2);
    EXPECT_EQ(parseRegister("s0"), 8);
    EXPECT_EQ(parseRegister("fp"), 8);
    EXPECT_EQ(parseRegister("a0"), 10);
    EXPECT_EQ(parseRegister("a7"), 17);
    EXPECT_EQ(parseRegister("s2"), 18);
    EXPECT_EQ(parseRegister("s11"), 27);
    EXPECT_EQ(parseRegister("t0"), 5);
    EXPECT_EQ(parseRegister("t3"), 28);
    EXPECT_EQ(parseRegister("t6"), 31);
    EXPECT_THROW(parseRegister("x32"), FatalError);
    EXPECT_THROW(parseRegister("bogus"), FatalError);
}

TEST(Registers, ToString)
{
    EXPECT_EQ(toString({Opcode::kAdd, 1, 2, 3, 0}),
              "add x1, x2, x3");
    EXPECT_EQ(toString({Opcode::kLd, 5, 6, 0, -8}),
              "ld x5, -8(x6)");
    EXPECT_EQ(toString({Opcode::kSd, 0, 6, 7, 16}),
              "sd x7, 16(x6)");
    EXPECT_EQ(toString({Opcode::kBeq, 0, 1, 2, 4}),
              "beq x1, x2, 4");
    EXPECT_EQ(toString({Opcode::kHalt, 0, 0, 0, 0}), "halt");
}

// --------------------------------------------------------------------
// Program fingerprint
// --------------------------------------------------------------------

TEST(Program, FingerprintsArePinned)
{
    // The result-cache key embeds these fingerprints: a rewrite of
    // Program::fingerprint that changes any value rolls every cache
    // key.
    EXPECT_EQ(workloadByName("ct-aes-bitslice").program.fingerprint(),
              0xb1c099256cae55feull);
    EXPECT_EQ(workloadByName("spmv").program.fingerprint(),
              0x70a8cde4bea65626ull);
}

} // namespace
} // namespace spt
