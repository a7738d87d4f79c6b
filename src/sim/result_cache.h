/**
 * @file
 * On-disk content-addressed result cache: cross-process memoization
 * of RunJob outcomes (DESIGN.md §14).
 *
 * Jobs are keyed by *content*. `canonicalKey` serializes the
 * full job descriptor into a stable text form in which the program
 * is replaced by its content fingerprint (Program::fingerprint:
 * instruction stream, entry, data segments, secret ranges), plus
 * every scalar field of the descriptor (engine configuration,
 * attack model, seed, cycle budget, fault plan, observability
 * flags). Two jobs with equal canonical keys are the same pure
 * function: the simulator is deterministic and byte-identical at
 * any worker count, so serving a hit from disk is provably exact,
 * not approximate. `verify` mode makes that claim testable by
 * re-simulating hits and comparing the deterministic portion of the
 * outcome byte-for-byte. The same key is ExpRunner's in-sweep dedup
 * key (sim/exp_runner.h), so one notion of "same job" covers both a
 * grid's duplicate cells and reruns in later processes.
 *
 * Record format ("SPTRES01"): magic and version, explicit
 * little-endian, bounds-checked, with the full canonical key
 * embedded (64-bit filename hashes can collide; the key comparison
 * cannot) and an FNV-1a content-hash trailer (common/fnv.h). A
 * record that is truncated, bit-rotten, version-skewed, or belongs
 * to a colliding key decodes to "miss" — a corrupt cache degrades
 * to simulation, it never poisons a sweep or kills it.
 *
 * Only `RunStatus::kOk` outcomes are stored: failure slots
 * re-simulate so default-policy sweeps still rethrow the original
 * exception, and a transiently broken build can't freeze its
 * failures into the cache.
 *
 * Writes are atomic: each store writes a temp file it created
 * exclusively (`<entry>.tmpXXXXXX`, mkstemp) and renames it over
 * the entry. Concurrent writers — pool workers, or several
 * processes sharing one cache directory — never touch each other's
 * temp files, and the last rename wins. Their records may differ
 * in host_seconds but not in anything deterministic, so whichever
 * record wins serves the same outcome. Entries keep mkstemp's
 * owner-only mode (0600). A sweep killed mid-write leaves at most a
 * stray `.tmpXXXXXX` file, which no lookup ever reads.
 */

#ifndef SPT_SIM_RESULT_CACHE_H
#define SPT_SIM_RESULT_CACHE_H

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

namespace spt {

class Program;
struct RunJob;
struct RunOutcome;

/** How a sweep uses the cache (RunnerPolicy::cache_mode /
 *  SPT_CACHE_MODE). */
enum class CacheMode : uint8_t {
    kOff,       ///< no cache I/O at all
    kReadWrite, ///< serve hits, store misses (the default)
    kReadOnly,  ///< serve hits, never write
    kVerify,    ///< re-simulate hits and compare byte-for-byte
};

const char *cacheModeName(CacheMode m);
/** Parses "off" / "read_write" / "read_only" / "verify";
 *  SPT_FATAL on anything else. */
CacheMode parseCacheMode(const std::string &text);

/** Content hashes canonicalKey has already derived within one grid:
 *  each distinct Program object is fingerprinted once instead of
 *  once per cell. Valid only while those programs stay unchanged —
 *  one ExpRunner::run call. */
struct KeyHashMemo {
    std::unordered_map<const Program *, uint64_t> programs;
};

/** Cache traffic of one sweep (SweepStats::cache). */
struct CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    /** verify-mode hits whose re-simulation did not reproduce the
     *  stored record byte-for-byte. Always 0 unless the cache was
     *  corrupted or the simulator's determinism contract broke —
     *  either way a finding, surfaced loudly. */
    uint64_t verify_mismatches = 0;
    uint64_t bytes_written = 0;
    /** Sum of the recorded host_seconds of every served hit: the
     *  simulation time this sweep did not pay. */
    double host_seconds_saved = 0.0;
};

class ResultCache
{
  public:
    /** Opens (creating if needed) cache directory @p dir.
     *  SPT_FATAL if the directory cannot be created. @p mode must
     *  not be kOff (callers skip construction entirely). */
    ResultCache(std::string dir, CacheMode mode);

    CacheMode mode() const { return mode_; }
    const std::string &dir() const { return dir_; }

    /** Stable content-addressed serialization of the descriptor.
     *  @p memo, when given, carries program fingerprints across the
     *  calls of one grid. */
    static std::string canonicalKey(const RunJob &job,
                                    KeyHashMemo *memo = nullptr);

    /** Deterministic encoding of an outcome — the record payload.
     *  job_desc/memoized are per-slot runner state and excluded. The
     *  layout is fixed: records written by earlier builds decode
     *  under it, so a dropped field keeps its slot as a constant. */
    static std::string encodeOutcome(const RunOutcome &out);
    /** Inverse of encodeOutcome; SPT_FATAL on malformed bytes. */
    static RunOutcome decodeOutcome(const std::string &bytes);
    /** encodeOutcome with host_seconds — the only
     *  schedule-dependent field — zeroed: the byte-equality domain
     *  of verify mode and the determinism tests. */
    static std::string
    encodeOutcomeDeterministic(const RunOutcome &out);

    /** Entry file path for @p key (exposed for tests that corrupt
     *  or poison entries deliberately). */
    std::string entryPath(const std::string &key) const;

    /** Looks @p key up; on a hit fills @p out and returns true.
     *  Every decode failure (missing file, truncation, bit-rot,
     *  version skew, filename-hash collision) is a miss. Counts
     *  hits/misses/host_seconds_saved; thread-safe. */
    bool lookup(const std::string &key, RunOutcome *out);

    /** Stores @p out under @p key (kReadWrite only; kOk outcomes
     *  only — anything else is silently skipped). Atomic via an
     *  exclusively created temp file + rename; an unwritable cache
     *  directory warns once rather than failing the sweep.
     *  Thread-safe. */
    void store(const std::string &key, const RunOutcome &out);

    /** Records a verify-mode byte mismatch for @p key (also warns
     *  on stderr). Thread-safe. */
    void noteVerifyMismatch(const std::string &key);

    CacheStats stats() const;

  private:
    std::string dir_;
    CacheMode mode_;
    mutable std::mutex mutex_;
    CacheStats stats_;
    bool write_failed_ = false; ///< warn once, then stay quiet
};

} // namespace spt

#endif // SPT_SIM_RESULT_CACHE_H
