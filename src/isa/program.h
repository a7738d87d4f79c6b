/**
 * @file
 * A loadable TRISC program: instruction text segment, initialized
 * data segments, symbol table, and entry point.
 */

#ifndef SPT_ISA_PROGRAM_H
#define SPT_ISA_PROGRAM_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/byte_memory.h"
#include "isa/instruction.h"

namespace spt {

/** Default base address of the first .data segment. */
constexpr uint64_t kDefaultDataBase = 0x100000;

/** Default initial stack pointer (stack grows down). */
constexpr uint64_t kDefaultStackTop = 0x7ff0000;

/** A byte range of simulated memory holding secret data, annotated
 *  on a program for the static constant-time lint (`src/analysis`).
 *  The dynamic engines ignore these: under SPT *all* memory starts
 *  tainted; the annotation marks which subset a lint finding about
 *  would be a real leak. */
struct SecretRange {
    uint64_t base = 0;
    uint64_t len = 0;

    bool contains(uint64_t addr) const
    {
        return addr >= base && addr - base < len;
    }
    bool overlaps(uint64_t lo, uint64_t hi) const // [lo, hi)
    {
        return lo < base + len && base < hi;
    }
};

class Program
{
  public:
    /** Appends an instruction; returns its pc (instruction index). */
    uint64_t append(const Instruction &inst);

    const std::vector<Instruction> &code() const { return code_; }
    size_t size() const { return code_.size(); }

    const Instruction &at(uint64_t pc) const;

    /** True iff @p pc addresses a valid instruction. */
    bool validPc(uint64_t pc) const { return pc < code_.size(); }

    uint64_t entry() const { return entry_; }
    void setEntry(uint64_t pc) { entry_ = pc; }

    /** Registers initialized data to be loaded at @p addr. */
    void addData(uint64_t addr, const std::vector<uint8_t> &bytes);
    void addData64(uint64_t addr, const std::vector<uint64_t> &words);

    /** Defines a symbol (label) with a value (pc or byte address). */
    void defineSymbol(const std::string &name, uint64_t value);
    bool hasSymbol(const std::string &name) const;

    /** Looks up a symbol; throws FatalError if missing. */
    uint64_t symbol(const std::string &name) const;

    /** Overwrites @p bytes bytes at @p addr inside an existing data
     *  segment (used for symbol fixups in data, e.g. jump tables). */
    void patchData(uint64_t addr, uint64_t value, unsigned bytes);

    /** Copies all initialized data segments into @p mem and writes
     *  the encoded text segment at pc*kInstrBytes addresses. */
    void loadInto(ByteMemory &mem) const;

    const std::map<uint64_t, std::vector<uint8_t>> &
    dataSegments() const
    {
        return data_;
    }

    /** Full symbol table (labels -> pc or byte address). */
    const std::map<std::string, uint64_t> &symbols() const
    {
        return symbols_;
    }

    /** Annotates @p len bytes at @p addr as secret input data (for
     *  the static constant-time lint; no dynamic effect). */
    void markSecret(uint64_t addr, uint64_t len);

    const std::vector<SecretRange> &secretRanges() const
    {
        return secrets_;
    }

    /** Content fingerprint: FNV-1a over the instruction stream (all
     *  fields), entry pc, data segments (addresses and bytes) and
     *  secret ranges; symbols are left out. Same-shaped programs with
     *  different code or data differ. The result cache keys runs on
     *  it (sim/result_cache.h), so its values are pinned by test. */
    uint64_t fingerprint() const;

  private:
    std::vector<Instruction> code_;
    std::map<uint64_t, std::vector<uint8_t>> data_;
    std::map<std::string, uint64_t> symbols_;
    std::vector<SecretRange> secrets_;
    uint64_t entry_ = 0;
};

} // namespace spt

#endif // SPT_ISA_PROGRAM_H
