#include "core/knowledge_map.h"

#include <bit>
#include <fstream>
#include <sstream>

#include "common/json.h"
#include "common/logging.h"
#include "isa/program.h"
#include "uarch/types.h"

namespace spt {

namespace {

constexpr uint64_t kMagic = 0x5350544B4D415031ull; // "SPTKMAP1"
constexpr uint8_t kFormatVersion = 1;

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void
fnv(uint64_t &h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
}

constexpr uint64_t kFnvPrime8 = [] {
    uint64_t p = 1;
    for (int i = 0; i < 8; ++i)
        p *= kFnvPrime;
    return p;
}();

/** fnv(h, byte) in one multiply: the seven zero high bytes leave h
 *  unchanged by their xor, so their rounds only multiply by the
 *  prime. */
void
fnvByte(uint64_t &h, uint8_t byte)
{
    h = (h ^ byte) * kFnvPrime8;
}

void
putU64(std::ostream &os, uint64_t v)
{
    char b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    os.write(b, 8);
}

void
putU32(std::ostream &os, uint32_t v)
{
    char b[4];
    for (int i = 0; i < 4; ++i)
        b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    os.write(b, 4);
}

uint64_t
getU64(std::istream &is)
{
    char b[8];
    is.read(b, 8);
    if (!is)
        SPT_FATAL("knowledge map truncated");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(static_cast<uint8_t>(b[i]))
             << (8 * i);
    return v;
}

uint32_t
getU32(std::istream &is)
{
    char b[4];
    is.read(b, 4);
    if (!is)
        SPT_FATAL("knowledge map truncated");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(static_cast<uint8_t>(b[i]))
             << (8 * i);
    return v;
}

uint8_t
getU8(std::istream &is)
{
    const int c = is.get();
    if (c < 0)
        SPT_FATAL("knowledge map truncated");
    return static_cast<uint8_t>(c);
}

} // namespace

const char *
toString(KnowledgeVpModel m)
{
    switch (m) {
      case KnowledgeVpModel::kSpectre:    return "spectre";
      case KnowledgeVpModel::kFuturistic: return "futuristic";
      case KnowledgeVpModel::kAny:        return "any";
    }
    return "?";
}

KnowledgeMap::KnowledgeMap(uint64_t program_fingerprint,
                           KnowledgeVpModel vp_model,
                           std::vector<uint32_t> robust_regs)
    : fingerprint_(program_fingerprint), vp_model_(vp_model),
      robust_regs_(std::move(robust_regs))
{
}

uint64_t
KnowledgeMap::coveredPcs() const
{
    uint64_t n = 0;
    for (uint32_t m : robust_regs_)
        n += m != 0;
    return n;
}

uint64_t
KnowledgeMap::totalFacts() const
{
    uint64_t n = 0;
    for (uint32_t m : robust_regs_)
        n += static_cast<uint64_t>(std::popcount(m));
    return n;
}

uint64_t
KnowledgeMap::contentHash() const
{
    uint64_t h = kFnvOffset;
    fnv(h, fingerprint_);
    fnv(h, static_cast<uint64_t>(vp_model_));
    fnv(h, static_cast<uint64_t>(edge_policy_));
    fnv(h, static_cast<uint64_t>(analysis_version_));
    fnv(h, robust_regs_.size());
    for (uint32_t m : robust_regs_)
        fnv(h, m);
    return h;
}

uint64_t
KnowledgeMap::fingerprintOf(const Program &p)
{
    uint64_t h = kFnvOffset;
    fnv(h, p.size());
    fnv(h, p.entry());
    for (uint64_t pc = 0; pc < p.size(); ++pc) {
        const Instruction &si = p.at(pc);
        fnv(h, static_cast<uint64_t>(si.op));
        fnv(h, si.rd);
        fnv(h, si.rs1);
        fnv(h, si.rs2);
        fnv(h, static_cast<uint64_t>(si.imm));
    }
    for (const auto &[addr, seg] : p.dataSegments()) {
        fnv(h, addr);
        fnv(h, seg.size());
        for (uint8_t byte : seg)
            fnvByte(h, byte);
    }
    for (const SecretRange &r : p.secretRanges()) {
        fnv(h, r.base);
        fnv(h, r.len);
    }
    return h;
}

void
KnowledgeMap::validateFor(const Program &program,
                          AttackModel model) const
{
    if (fingerprint_ != fingerprintOf(program))
        SPT_FATAL("knowledge map fingerprint mismatch: map was "
                  "built over a different program (stale map?)");
    if (edge_policy_ != kKnowledgeEdgePolicyVersion)
        SPT_FATAL("knowledge map edge-policy version "
                  << unsigned(edge_policy_) << " != supported "
                  << unsigned(kKnowledgeEdgePolicyVersion));
    if (analysis_version_ != kKnowledgeAnalysisVersion)
        SPT_FATAL("knowledge map analysis version "
                  << unsigned(analysis_version_) << " != supported "
                  << unsigned(kKnowledgeAnalysisVersion));
    const KnowledgeVpModel want =
        model == AttackModel::kSpectre ? KnowledgeVpModel::kSpectre
                                       : KnowledgeVpModel::kFuturistic;
    if (vp_model_ != KnowledgeVpModel::kAny && vp_model_ != want)
        SPT_FATAL("knowledge map VP model '" << toString(vp_model_)
                  << "' does not cover the run's attack model '"
                  << toString(want) << "'");
}

void
KnowledgeMap::save(std::ostream &os) const
{
    putU64(os, kMagic);
    os.put(static_cast<char>(kFormatVersion));
    putU64(os, fingerprint_);
    os.put(static_cast<char>(vp_model_));
    os.put(static_cast<char>(edge_policy_));
    os.put(static_cast<char>(analysis_version_));
    putU64(os, robust_regs_.size());
    for (uint32_t m : robust_regs_)
        putU32(os, m);
    putU64(os, contentHash()); // trailer: integrity check
    if (!os)
        SPT_FATAL("knowledge map write failed");
}

KnowledgeMap
KnowledgeMap::load(std::istream &is)
{
    if (getU64(is) != kMagic)
        SPT_FATAL("not a knowledge map (bad magic)");
    const uint8_t version = getU8(is);
    if (version != kFormatVersion)
        SPT_FATAL("knowledge map format version "
                  << unsigned(version) << " unsupported (expected "
                  << unsigned(kFormatVersion) << ")");
    KnowledgeMap map;
    map.fingerprint_ = getU64(is);
    const uint8_t model = getU8(is);
    if (model > static_cast<uint8_t>(KnowledgeVpModel::kAny))
        SPT_FATAL("knowledge map: bad VP model tag "
                  << unsigned(model));
    map.vp_model_ = static_cast<KnowledgeVpModel>(model);
    map.edge_policy_ = getU8(is);
    map.analysis_version_ = getU8(is);
    const uint64_t n = getU64(is);
    if (n > (1ull << 32))
        SPT_FATAL("knowledge map: implausible pc count " << n);
    map.robust_regs_.resize(n);
    for (uint64_t i = 0; i < n; ++i)
        map.robust_regs_[i] = getU32(is);
    if (getU64(is) != map.contentHash())
        SPT_FATAL("knowledge map corrupted (trailer hash mismatch)");
    return map;
}

void
KnowledgeMap::saveToFile(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        SPT_FATAL("cannot write knowledge map " << path);
    save(os);
}

KnowledgeMap
KnowledgeMap::loadFromFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        SPT_FATAL("cannot open knowledge map " << path);
    return load(is);
}

std::string
KnowledgeMap::toJson(const Program *program) const
{
    JsonWriter jw;
    jw.beginObject();
    jw.field("artifact", "knowledge_map");
    jw.field("format_version", uint64_t{kFormatVersion});
    {
        std::ostringstream hex;
        hex << std::hex << fingerprint_;
        jw.field("program_fingerprint", "0x" + hex.str());
    }
    jw.field("vp_model", toString(vp_model_));
    jw.field("edge_policy_version",
             static_cast<uint64_t>(edge_policy_));
    jw.field("analysis_version",
             static_cast<uint64_t>(analysis_version_));
    jw.field("pcs", robust_regs_.size());
    jw.field("covered_pcs", coveredPcs());
    jw.field("robust_facts", totalFacts());
    jw.key("entries").beginArray();
    for (uint64_t pc = 0; pc < robust_regs_.size(); ++pc) {
        const uint32_t mask = robust_regs_[pc];
        if (mask == 0)
            continue;
        jw.beginObject();
        jw.field("pc", pc);
        if (program)
            jw.field("instruction", toString(program->at(pc)));
        jw.key("robust_regs").beginArray();
        for (unsigned r = 0; r < kNumArchRegs; ++r)
            if (mask >> r & 1)
                jw.value("x" + std::to_string(r));
        jw.endArray();
        jw.endObject();
    }
    jw.endArray();
    jw.endObject();
    return jw.str();
}

} // namespace spt
