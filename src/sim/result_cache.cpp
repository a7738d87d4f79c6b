#include "sim/result_cache.h"

#include <bit>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "common/fnv.h"
#include "common/logging.h"
#include "common/stats.h"
#include "isa/program.h"
#include "sim/exp_runner.h"

namespace spt {

namespace {

constexpr uint64_t kMagic = 0x5350545245533031ull; // "SPTRES01"
constexpr uint32_t kVersion = 1;

std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

// --------------------------------------------------------------------
// Record codec: append-to-string writer, offset reader. The reader
// throws FatalError on any malformation; lookup() catches it and
// reports a miss.
// --------------------------------------------------------------------

void
putU8(std::string &out, uint8_t v)
{
    out.push_back(static_cast<char>(v));
}

void
putU32(std::string &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putDouble(std::string &out, double v)
{
    putU64(out, std::bit_cast<uint64_t>(v));
}

void
putStr(std::string &out, const std::string &s)
{
    putU64(out, s.size());
    out.append(s);
}

class Reader
{
  public:
    Reader(const std::string &buf, std::size_t pos = 0)
        : buf_(buf), pos_(pos)
    {
    }

    uint8_t
    u8()
    {
        need(1);
        return static_cast<uint8_t>(buf_[pos_++]);
    }
    uint32_t
    u32()
    {
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= uint32_t{u8()} << (8 * i);
        return v;
    }
    uint64_t
    u64()
    {
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= uint64_t{u8()} << (8 * i);
        return v;
    }
    double
    d()
    {
        return std::bit_cast<double>(u64());
    }
    std::string
    str()
    {
        const uint64_t n = u64();
        need(n);
        std::string s = buf_.substr(pos_, n);
        pos_ += n;
        return s;
    }
    std::size_t pos() const { return pos_; }
    bool
    atEnd() const
    {
        return pos_ == buf_.size();
    }

  private:
    void
    need(uint64_t n) const
    {
        if (n > buf_.size() || pos_ > buf_.size() - n)
            SPT_FATAL("result record truncated");
    }

    const std::string &buf_;
    std::size_t pos_;
};

/** Writes @p bytes to a temp file beside @p path, then renames it
 *  over @p path. mkstemp creates the temp file exclusively, under a
 *  name no other writer holds, so concurrent stores — pool workers
 *  or other processes sharing the directory — never write through
 *  each other's files. False, with the temp file removed, on any
 *  failure. */
bool
writeAtomically(const std::string &path, const std::string &bytes)
{
    std::string tmp = path + ".tmpXXXXXX";
    const int fd = ::mkstemp(tmp.data());
    if (fd < 0)
        return false;
    bool ok = true;
    for (std::size_t done = 0; ok && done < bytes.size();) {
        const ssize_t n =
            ::write(fd, bytes.data() + done, bytes.size() - done);
        if (n > 0)
            done += static_cast<std::size_t>(n);
        else
            ok = n < 0 && errno == EINTR;
    }
    ok = ::close(fd) == 0 && ok;
    ok = ok && std::rename(tmp.c_str(), path.c_str()) == 0;
    if (!ok)
        std::remove(tmp.c_str());
    return ok;
}

} // namespace

const char *
cacheModeName(CacheMode m)
{
    switch (m) {
      case CacheMode::kOff:       return "off";
      case CacheMode::kReadWrite: return "read_write";
      case CacheMode::kReadOnly:  return "read_only";
      case CacheMode::kVerify:    return "verify";
    }
    return "?";
}

CacheMode
parseCacheMode(const std::string &text)
{
    if (text == "off")
        return CacheMode::kOff;
    if (text == "read_write")
        return CacheMode::kReadWrite;
    if (text == "read_only")
        return CacheMode::kReadOnly;
    if (text == "verify")
        return CacheMode::kVerify;
    SPT_FATAL("unknown cache mode \"" << text
              << "\" (expected off / read_write / read_only / "
                 "verify)");
}

ResultCache::ResultCache(std::string dir, CacheMode mode)
    : dir_(std::move(dir)), mode_(mode)
{
    SPT_ASSERT(mode_ != CacheMode::kOff,
               "ResultCache constructed with mode off");
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        SPT_FATAL("cannot create cache directory " << dir_ << ": "
                                                   << ec.message());
}

std::string
ResultCache::canonicalKey(const RunJob &job, KeyHashMemo *memo)
{
    SPT_ASSERT(job.program != nullptr, "canonicalKey of a null program");
    uint64_t prog = 0;
    if (memo) {
        const auto [it, inserted] =
            memo->programs.try_emplace(job.program, 0);
        if (inserted)
            it->second = job.program->fingerprint();
        prog = it->second;
    } else {
        prog = job.program->fingerprint();
    }

    // Every descriptor field except `label` (presentation, not
    // identity), with each by-reference component replaced by its
    // content hash. The observability flags participate: a traced
    // run carries artifacts a plain run lacks. fast_forward
    // participates although it is result-identical by contract: it
    // changes the ff.* counters, and merging it would hide exactly
    // the regressions the equivalence gates exist to catch. The
    // "resv2" prefix versions the key schema itself: changing how
    // keys are derived, or which counters a stored outcome carries,
    // must not alias old entries (resv1 records still hold the
    // duplicate policy.*, lsu.*, fault.* and commit.* counters).
    // Within a version the text stays byte-stable for every
    // existing field. That is why `st=0`,
    // `km=0000000000000000`, `ca=0` and `ck=0` remain as constants:
    // they held the taint-storage, knowledge-map and checkpoint knobs
    // of removed features, and every key already on disk has them.
    char buf[512];
    int n = std::snprintf(
        buf, sizeof buf,
        "resv2|prog=%016" PRIx64 "|sch=%u|m=%u|sh=%u|bw=%u|st=0"
        "|mut=%u|km=0000000000000000|am=%u|seed=%" PRIu64
        "|mc=%" PRIu64 "|tr=%u|pf=%u|iv=%" PRIu64 "|inv=%u"
        "|wd=%" PRIu64 "|ff=%u|ca=0|fs=%" PRIu64,
        prog, static_cast<unsigned>(job.engine.scheme),
        static_cast<unsigned>(job.engine.spt.method),
        static_cast<unsigned>(job.engine.spt.shadow),
        job.engine.spt.broadcast_width,
        static_cast<unsigned>(job.engine.spt.mutation),
        static_cast<unsigned>(job.attack_model), job.seed,
        job.max_cycles, static_cast<unsigned>(job.trace),
        static_cast<unsigned>(job.profile), job.interval_stats,
        static_cast<unsigned>(job.invariants), job.watchdog_cycles,
        static_cast<unsigned>(job.fast_forward), job.faults.seed);
    std::string key(buf, static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < kNumFaultSites; ++i) {
        std::snprintf(buf, sizeof buf, "|f%zu=%u", i,
                      job.faults.rate_ppm[i]);
        key += buf;
    }
    key += "|ck=0";
    return key;
}

std::string
ResultCache::encodeOutcome(const RunOutcome &out)
{
    std::string b;
    putU64(b, out.result.cycles);
    putU64(b, out.result.instructions);
    putU8(b, out.result.halted ? 1 : 0);
    putDouble(b, out.result.ipc);
    putU8(b, static_cast<uint8_t>(out.result.termination));
    putDouble(b, out.host_seconds);
    putU8(b, static_cast<uint8_t>(out.status));
    putStr(b, out.error);
    putStr(b, out.diagnostics_json);
    putU64(b, out.engine_counters.size());
    for (const auto &[name, value] : out.engine_counters) {
        putStr(b, name);
        putU64(b, value);
    }
    putU64(b, out.engine_histograms.size());
    for (const auto &[name, h] : out.engine_histograms) {
        putStr(b, name);
        putU64(b, h.buckets_.size());
        for (const uint64_t bucket : h.buckets_)
            putU64(b, bucket);
        putU64(b, h.samples_);
        putU64(b, h.sum_);
        putU64(b, h.max_);
    }
    putStr(b, out.trace_text);
    putStr(b, out.trace_pipeview);
    putStr(b, out.profile_json);
    putStr(b, out.intervals_json);
    putU64(b, out.fault_counters.size());
    for (const auto &[name, value] : out.fault_counters) {
        putStr(b, name);
        putU64(b, value);
    }
    for (const uint64_t r : out.arch_regs)
        putU64(b, r);
    // The slots of the removed failure-evidence fields (a trace tail
    // and a reproduced flag). Only clean outcomes are stored, and
    // those never carried evidence, so every record on disk holds
    // exactly these constants.
    putStr(b, "");
    putU8(b, 0);
    return b;
}

RunOutcome
ResultCache::decodeOutcome(const std::string &bytes)
{
    Reader rd(bytes);
    RunOutcome out;
    out.result.cycles = rd.u64();
    out.result.instructions = rd.u64();
    out.result.halted = rd.u8() != 0;
    out.result.ipc = rd.d();
    const uint8_t term = rd.u8();
    if (term > static_cast<uint8_t>(Termination::kLivelock))
        SPT_FATAL("result record corrupt: termination " << +term);
    out.result.termination = static_cast<Termination>(term);
    out.host_seconds = rd.d();
    const uint8_t status = rd.u8();
    if (status > static_cast<uint8_t>(RunStatus::kCrash))
        SPT_FATAL("result record corrupt: status " << +status);
    out.status = static_cast<RunStatus>(status);
    out.error = rd.str();
    out.diagnostics_json = rd.str();
    const uint64_t ncounters = rd.u64();
    if (ncounters > (uint64_t{1} << 20))
        SPT_FATAL("result record corrupt: " << ncounters
                                            << " counters");
    for (uint64_t i = 0; i < ncounters; ++i) {
        std::string name = rd.str();
        out.engine_counters[std::move(name)] = rd.u64();
    }
    const uint64_t nhists = rd.u64();
    if (nhists > (uint64_t{1} << 20))
        SPT_FATAL("result record corrupt: " << nhists
                                            << " histograms");
    for (uint64_t i = 0; i < nhists; ++i) {
        std::string name = rd.str();
        const uint64_t nbuckets = rd.u64();
        if (nbuckets == 0 || nbuckets > (uint64_t{1} << 20))
            SPT_FATAL("result record corrupt: " << nbuckets
                                                << " buckets");
        Histogram h(nbuckets);
        for (uint64_t bkt = 0; bkt < nbuckets; ++bkt)
            h.buckets_[bkt] = rd.u64();
        h.samples_ = rd.u64();
        h.sum_ = rd.u64();
        h.max_ = rd.u64();
        out.engine_histograms.emplace(std::move(name),
                                      std::move(h));
    }
    out.trace_text = rd.str();
    out.trace_pipeview = rd.str();
    out.profile_json = rd.str();
    out.intervals_json = rd.str();
    const uint64_t nfaults = rd.u64();
    if (nfaults > (uint64_t{1} << 16))
        SPT_FATAL("result record corrupt: " << nfaults
                                            << " fault counters");
    for (uint64_t i = 0; i < nfaults; ++i) {
        std::string name = rd.str();
        out.fault_counters[std::move(name)] = rd.u64();
    }
    for (uint64_t &r : out.arch_regs)
        r = rd.u64();
    if (!rd.str().empty() || rd.u8() != 0)
        SPT_FATAL("result record corrupt: evidence slots set");
    if (!rd.atEnd())
        SPT_FATAL("result record corrupt: trailing bytes");
    return out;
}

std::string
ResultCache::encodeOutcomeDeterministic(const RunOutcome &out)
{
    RunOutcome copy = out;
    copy.host_seconds = 0.0;
    copy.memoized = false;
    copy.job_desc.clear();
    return encodeOutcome(copy);
}

std::string
ResultCache::entryPath(const std::string &key) const
{
    return dir_ + "/" + hex16(fnv1a(key)) + ".sptres";
}

bool
ResultCache::lookup(const std::string &key, RunOutcome *out)
{
    bool hit = false;
    double saved = 0.0;
    try {
        std::ifstream is(entryPath(key), std::ios::binary);
        if (is) {
            std::string record(
                (std::istreambuf_iterator<char>(is)),
                std::istreambuf_iterator<char>());
            if (record.size() < 8)
                SPT_FATAL("result record truncated");
            // Content-hash trailer first: everything after this
            // point may assume the bytes are what was written.
            const std::size_t body = record.size() - 8;
            Reader trailer(record, body);
            if (trailer.u64() !=
                fnv1a(std::string_view(record).substr(0, body)))
                SPT_FATAL("result record content hash mismatch");
            Reader rd(record);
            if (rd.u64() != kMagic)
                SPT_FATAL("not a result record (bad magic)");
            const uint32_t version = rd.u32();
            if (version != kVersion)
                SPT_FATAL("result record version skew: "
                          << version);
            if (rd.str() != key)
                SPT_FATAL("result record key collision");
            const std::string payload = rd.str();
            if (rd.pos() != body)
                SPT_FATAL("result record corrupt: stray bytes");
            *out = decodeOutcome(payload);
            saved = out->host_seconds;
            hit = true;
        }
    } catch (const std::exception &) {
        // Any malformation degrades to a miss: the job simply
        // re-simulates (and read_write mode rewrites the entry).
        hit = false;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (hit) {
        ++stats_.hits;
        // Verify-mode hits re-simulate anyway; nothing is saved.
        if (mode_ != CacheMode::kVerify)
            stats_.host_seconds_saved += saved;
    } else {
        ++stats_.misses;
    }
    return hit;
}

void
ResultCache::store(const std::string &key, const RunOutcome &out)
{
    if (mode_ != CacheMode::kReadWrite)
        return;
    // Only clean outcomes are stored — see the file comment.
    if (out.status != RunStatus::kOk)
        return;

    std::string record;
    putU64(record, kMagic);
    putU32(record, kVersion);
    putStr(record, key);
    putStr(record, encodeOutcome(out));
    putU64(record, fnv1a(record));

    const std::string path = entryPath(key);
    const bool ok = writeAtomically(path, record);
    std::lock_guard<std::mutex> lock(mutex_);
    if (ok) {
        stats_.bytes_written += record.size();
    } else {
        if (!write_failed_)
            warn("result cache: cannot write " + path +
                 " (suppressing further write warnings)");
        write_failed_ = true;
    }
}

void
ResultCache::noteVerifyMismatch(const std::string &key)
{
    warn("result cache VERIFY MISMATCH: re-simulation of " + key +
         " does not reproduce the stored record");
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.verify_mismatches;
}

CacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace spt
