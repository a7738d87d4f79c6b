/**
 * @file
 * Knowledge-map artifact (core/knowledge_map.h + the
 * analysis-side emitter): lowering the KnowledgeAnalysis fixpoint
 * into the serialized per-PC robust-register map that
 * `spt_lint --emit-knowledge-map` writes (DESIGN.md §13). Pinned
 * here:
 *
 *  - the emitted map matches the analysis fact-for-fact,
 *  - binary round-trip (stream and file) is identity,
 *  - corrupted / truncated / foreign artifacts are rejected,
 *  - validateFor refuses stale fingerprints and mismatched VP
 *    models,
 *  - every map-claimed operand of a real workload retires
 *    untainted under the ideal-untaint engine.
 */

#include <cstdio>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "analysis/cfg.h"
#include "analysis/differential.h"
#include "analysis/knowledge_analysis.h"
#include "analysis/knowledge_map.h"
#include "common/logging.h"
#include "workloads/workloads.h"

namespace spt {
namespace {

KnowledgeMap
mapFor(const Program &p,
       KnowledgeVpModel model = KnowledgeVpModel::kAny)
{
    const Cfg cfg(p);
    const KnowledgeAnalysis analysis(cfg);
    return emitKnowledgeMap(analysis, model);
}

// ---------------------------------------------------------------
// Emitter
// ---------------------------------------------------------------

TEST(KnowledgeMap, EmitterMatchesTheAnalysisFixpoint)
{
    const Program p = makePointerChase(256, 1);
    const Cfg cfg(p);
    const KnowledgeAnalysis analysis(cfg);
    const KnowledgeMap map = emitKnowledgeMap(analysis);

    ASSERT_EQ(map.size(), p.size());
    EXPECT_EQ(map.programFingerprint(),
              KnowledgeMap::fingerprintOf(p));
    uint64_t facts = 0;
    for (uint64_t pc = 0; pc < p.size(); ++pc) {
        const KnowledgeState *st = analysis.inState(pc);
        const uint32_t mask = map.robustRegsAt(pc);
        for (unsigned r = 0; r < kNumArchRegs; ++r) {
            const bool robust =
                st && st->of(r) == Knowledge::kRobust;
            EXPECT_EQ((mask >> r & 1) != 0, robust)
                << "pc " << pc << " x" << r;
            facts += robust;
        }
    }
    EXPECT_EQ(map.totalFacts(), facts);
    EXPECT_GT(facts, 0u) << "emitter test is vacuous";
    // Out-of-range lookups must be the empty set, not UB.
    EXPECT_EQ(map.robustRegsAt(p.size() + 1000), 0u);
}

// ---------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------

TEST(KnowledgeMap, BinaryRoundTripIsIdentity)
{
    const KnowledgeMap map = mapFor(makePointerChase(256, 1),
                                    KnowledgeVpModel::kSpectre);
    std::ostringstream os;
    map.save(os);
    std::istringstream is(os.str());
    const KnowledgeMap loaded = KnowledgeMap::load(is);
    EXPECT_EQ(map, loaded);
    EXPECT_EQ(map.contentHash(), loaded.contentHash());
    EXPECT_EQ(loaded.vpModel(), KnowledgeVpModel::kSpectre);
}

TEST(KnowledgeMap, FileRoundTripIsIdentity)
{
    const KnowledgeMap map = mapFor(makeHashTable(300, 300));
    const std::string path =
        testing::TempDir() + "spt_test_km.bin";
    map.saveToFile(path);
    const KnowledgeMap loaded = KnowledgeMap::loadFromFile(path);
    EXPECT_EQ(map, loaded);
    std::remove(path.c_str());
}

TEST(KnowledgeMap, RejectsBadMagic)
{
    std::istringstream is(std::string(64, '\0'));
    EXPECT_THROW(KnowledgeMap::load(is), FatalError);
}

TEST(KnowledgeMap, RejectsTruncation)
{
    const KnowledgeMap map = mapFor(makePointerChase(256, 1));
    std::ostringstream os;
    map.save(os);
    const std::string bytes = os.str();
    // Every proper prefix must be refused, never misparsed. Step 7
    // keeps the loop fast while still crossing every field boundary.
    for (size_t len = 0; len < bytes.size(); len += 7) {
        std::istringstream is(bytes.substr(0, len));
        EXPECT_THROW(KnowledgeMap::load(is), FatalError)
            << "prefix length " << len;
    }
}

TEST(KnowledgeMap, RejectsBitrot)
{
    const KnowledgeMap map = mapFor(makePointerChase(256, 1));
    std::ostringstream os;
    map.save(os);
    std::string bytes = os.str();
    // Flip one payload bit (inside the robust-regs table, past the
    // fixed header): the content-hash trailer must catch it.
    bytes[bytes.size() / 2] ^= 0x10;
    std::istringstream is(bytes);
    EXPECT_THROW(KnowledgeMap::load(is), FatalError);
}

TEST(KnowledgeMap, ProgramFingerprintsArePinned)
{
    // The result-cache key embeds these fingerprints: a rewrite of
    // fingerprintOf that changes any value rolls every cache key.
    EXPECT_EQ(KnowledgeMap::fingerprintOf(
                  workloadByName("ct-aes-bitslice").program),
              0xb1c099256cae55feull);
    EXPECT_EQ(KnowledgeMap::fingerprintOf(
                  workloadByName("spmv").program),
              0x70a8cde4bea65626ull);
}

// ---------------------------------------------------------------
// Validation against a run
// ---------------------------------------------------------------

TEST(KnowledgeMap, ValidateForRejectsAForeignProgram)
{
    const Program pchase = makePointerChase(256, 1);
    const Program hashtab = makeHashTable(300, 300);
    const KnowledgeMap map = mapFor(pchase);
    EXPECT_NO_THROW(
        map.validateFor(pchase, AttackModel::kSpectre));
    EXPECT_THROW(map.validateFor(hashtab, AttackModel::kSpectre),
                 FatalError);
}

TEST(KnowledgeMap, ValidateForChecksTheVpModel)
{
    const Program p = makePointerChase(256, 1);
    const KnowledgeMap spectre_map =
        mapFor(p, KnowledgeVpModel::kSpectre);
    EXPECT_NO_THROW(
        spectre_map.validateFor(p, AttackModel::kSpectre));
    EXPECT_THROW(
        spectre_map.validateFor(p, AttackModel::kFuturistic),
        FatalError);
    const KnowledgeMap any_map = mapFor(p, KnowledgeVpModel::kAny);
    EXPECT_NO_THROW(any_map.validateFor(p, AttackModel::kSpectre));
    EXPECT_NO_THROW(
        any_map.validateFor(p, AttackModel::kFuturistic));
}

TEST(KnowledgeMap, JsonDumpCarriesTheMapIdentity)
{
    const Program p = makePointerChase(256, 1);
    const KnowledgeMap map = mapFor(p);
    const std::string json = map.toJson(&p);
    EXPECT_NE(json.find("\"artifact\": \"knowledge_map\""),
              std::string::npos);
    EXPECT_NE(json.find("\"vp_model\": \"any\""),
              std::string::npos);
    EXPECT_NE(json.find("\"robust_facts\": " +
                        std::to_string(map.totalFacts())),
              std::string::npos);
    // Deterministic: same map, same bytes.
    EXPECT_EQ(json, map.toJson(&p));
}

// ---------------------------------------------------------------
// Commit-time check: map facts hold on a real workload
// ---------------------------------------------------------------

TEST(KnowledgeMap, FactsHoldAtCommitOnPchase)
{
    const Program p = workloadByName("pchase").program;
    const KnowledgeMap map = mapFor(p);
    DifferentialConfig config;
    config.attack_model = AttackModel::kSpectre;
    const MapDifferentialResult res =
        runMapDifferential(p, map, config);
    EXPECT_TRUE(res.halted);
    EXPECT_GT(res.map_facts, 0u);
    EXPECT_GT(res.robust_checked, 0u);
    EXPECT_EQ(res.robust_denied, 0u) << [&] {
        std::string joined;
        for (const std::string &line : res.log)
            joined += line + "\n";
        return joined;
    }();
}

} // namespace
} // namespace spt
