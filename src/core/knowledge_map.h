/**
 * @file
 * Serialized static-knowledge artifact of the static
 * knowledge-propagation pass (src/analysis, DESIGN.md §13).
 *
 * A `KnowledgeMap` records, per program counter, the set of
 * architectural registers whose values are kRobust-known at that
 * point — facts whose justifying declassifications are all
 * program-order-older visibility-point events, the only knowledge
 * tier strong enough to assert against the dynamic engine. The map
 * is produced by `spt_lint --emit-knowledge-map` (the emitter lives
 * in src/analysis/knowledge_map.h) and every fact is checked
 * against the dynamic engine at commit (analysis/differential.h).
 * The engine does not consume maps. This header deliberately has no
 * analysis dependency, so the result cache can key runs on
 * `fingerprintOf` without linking the analysis library.
 *
 * Stale-map rejection: the binary header carries a content
 * fingerprint of the program (instruction stream, entry, data
 * segments, secret ranges) plus the analysis configuration (VP
 * model, CFG edge-policy version, analysis version). `validateFor`
 * refuses a map built over different code or under an incompatible
 * configuration — a silently stale map would turn the soundness
 * argument into wishful thinking.
 */

#ifndef SPT_CORE_KNOWLEDGE_MAP_H
#define SPT_CORE_KNOWLEDGE_MAP_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace spt {

class Program;
enum class AttackModel : uint8_t;

/** Which visibility-point model the map's facts were derived for.
 *  The knowledge analysis only uses declassifications that are valid
 *  under *both* VP models (transmitter operands at the VP), so the
 *  emitter stamps kAny by default; a narrower stamp restricts the
 *  runs that will accept the map. */
enum class KnowledgeVpModel : uint8_t {
    kSpectre = 0,
    kFuturistic = 1,
    kAny = 2,
};

const char *toString(KnowledgeVpModel m);

/** Version of the CFG edge policy (analysis/cfg.h file comment) the
 *  facts depend on; bump when the over-approximation changes. */
constexpr uint8_t kKnowledgeEdgePolicyVersion = 1;
/** Version of the knowledge analysis itself (lattice, rules). */
constexpr uint8_t kKnowledgeAnalysisVersion = 1;

class KnowledgeMap
{
  public:
    KnowledgeMap() = default;
    /** @param robust_regs per-pc bitmask over architectural
     *  registers (bit r set = reg r kRobust-known just before the
     *  instruction at that pc executes). */
    KnowledgeMap(uint64_t program_fingerprint,
                 KnowledgeVpModel vp_model,
                 std::vector<uint32_t> robust_regs);

    /** Robust-known architectural registers at @p pc (bit r = arch
     *  reg r); 0 for out-of-range pcs. */
    uint32_t
    robustRegsAt(uint64_t pc) const
    {
        return pc < robust_regs_.size() ? robust_regs_[pc] : 0;
    }

    uint64_t size() const { return robust_regs_.size(); }
    uint64_t programFingerprint() const { return fingerprint_; }
    KnowledgeVpModel vpModel() const { return vp_model_; }
    uint8_t edgePolicyVersion() const { return edge_policy_; }
    uint8_t analysisVersion() const { return analysis_version_; }

    /** Number of pcs with at least one robust operand fact. */
    uint64_t coveredPcs() const;
    /** Total robust register facts (popcount over all pcs). */
    uint64_t totalFacts() const;

    /** FNV-1a over the header and every per-pc mask: the file's
     *  integrity trailer. */
    uint64_t contentHash() const;

    /** SPT_FATAL unless the map was built over @p program and its
     *  VP-model stamp covers @p model (kAny covers both). */
    void validateFor(const Program &program,
                     AttackModel model) const;

    // --- serialization ------------------------------------------------
    void save(std::ostream &os) const;
    static KnowledgeMap load(std::istream &is); ///< SPT_FATAL on junk
    void saveToFile(const std::string &path) const;
    static KnowledgeMap loadFromFile(const std::string &path);

    /** Human-readable dump (deterministic, byte-stable): header
     *  fields plus one entry per covered pc naming the robust
     *  registers. @p program, when non-null, adds disassembly. */
    std::string toJson(const Program *program = nullptr) const;

    /** Content fingerprint binding a map to a program: FNV-1a over
     *  the instruction stream (all fields), entry pc, data segments
     *  (addresses and bytes), and secret ranges. It covers content,
     *  not just shape: a stale map over same-shaped different code
     *  must be rejected. */
    static uint64_t fingerprintOf(const Program &program);

    bool operator==(const KnowledgeMap &) const = default;

  private:
    uint64_t fingerprint_ = 0;
    KnowledgeVpModel vp_model_ = KnowledgeVpModel::kAny;
    uint8_t edge_policy_ = kKnowledgeEdgePolicyVersion;
    uint8_t analysis_version_ = kKnowledgeAnalysisVersion;
    std::vector<uint32_t> robust_regs_;
};

} // namespace spt

#endif // SPT_CORE_KNOWLEDGE_MAP_H
