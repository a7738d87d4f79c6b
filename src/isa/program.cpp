#include "isa/program.h"

#include "common/fnv.h"
#include "common/logging.h"
#include "isa/encoding.h"

namespace spt {

uint64_t
Program::append(const Instruction &inst)
{
    code_.push_back(inst);
    return code_.size() - 1;
}

const Instruction &
Program::at(uint64_t pc) const
{
    SPT_ASSERT(validPc(pc), "pc out of range: " << pc);
    return code_[pc];
}

void
Program::addData(uint64_t addr, const std::vector<uint8_t> &bytes)
{
    auto &seg = data_[addr];
    seg.insert(seg.end(), bytes.begin(), bytes.end());
}

void
Program::addData64(uint64_t addr, const std::vector<uint64_t> &words)
{
    // Little-endian words written straight into the segment, so the
    // eight byte stores of a word merge into one: this loop dominates
    // building the workload registry.
    std::vector<uint8_t> &seg = data_[addr];
    seg.resize(seg.size() + words.size() * 8);
    uint8_t *out = seg.data() + seg.size() - words.size() * 8;
    for (const uint64_t w : words) {
        for (int i = 0; i < 8; ++i)
            out[i] = static_cast<uint8_t>(w >> (8 * i));
        out += 8;
    }
}

void
Program::defineSymbol(const std::string &name, uint64_t value)
{
    if (symbols_.count(name))
        SPT_FATAL("duplicate symbol: " << name);
    symbols_[name] = value;
}

bool
Program::hasSymbol(const std::string &name) const
{
    return symbols_.count(name) > 0;
}

uint64_t
Program::symbol(const std::string &name) const
{
    auto it = symbols_.find(name);
    if (it == symbols_.end())
        SPT_FATAL("undefined symbol: " << name);
    return it->second;
}

void
Program::patchData(uint64_t addr, uint64_t value, unsigned bytes)
{
    for (auto &[base, seg] : data_) {
        if (addr >= base && addr + bytes <= base + seg.size()) {
            for (unsigned i = 0; i < bytes; ++i)
                seg[addr - base + i] =
                    static_cast<uint8_t>(value >> (8 * i));
            return;
        }
    }
    SPT_FATAL("patchData: no data segment covers address " << addr);
}

void
Program::markSecret(uint64_t addr, uint64_t len)
{
    SPT_ASSERT(len > 0, "markSecret: empty range at " << addr);
    secrets_.push_back({addr, len});
}

uint64_t
Program::fingerprint() const
{
    uint64_t h = kFnvOffset;
    fnv1aU64(h, code_.size());
    fnv1aU64(h, entry_);
    for (const Instruction &si : code_) {
        fnv1aU64(h, static_cast<uint64_t>(si.op));
        fnv1aU64(h, si.rd);
        fnv1aU64(h, si.rs1);
        fnv1aU64(h, si.rs2);
        fnv1aU64(h, static_cast<uint64_t>(si.imm));
    }
    for (const auto &[addr, seg] : data_) {
        fnv1aU64(h, addr);
        fnv1aU64(h, seg.size());
        for (uint8_t byte : seg)
            fnv1aU64Byte(h, byte);
    }
    for (const SecretRange &r : secrets_) {
        fnv1aU64(h, r.base);
        fnv1aU64(h, r.len);
    }
    return h;
}

void
Program::loadInto(ByteMemory &mem) const
{
    for (const auto &[addr, bytes] : data_)
        mem.writeBlock(addr, bytes.data(), bytes.size());
    for (size_t pc = 0; pc < code_.size(); ++pc) {
        const EncodedInstruction enc = encode(code_[pc]);
        mem.writeBlock(pc * kInstrBytes, enc.bytes.data(),
                       enc.bytes.size());
    }
}

} // namespace spt
