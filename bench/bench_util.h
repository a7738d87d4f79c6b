/**
 * @file
 * Shared helpers for the figure-regeneration harnesses: grid
 * construction over the workload registry, common CLI handling
 * (--jobs / --out), and the paper's summary statistics. The
 * sweeps themselves run on the parallel experiment runner
 * (sim/exp_runner.h); drivers build their whole grid up front and
 * render tables/JSON from the index-addressed outcomes, so stdout
 * and the JSON artifact are byte-identical for any --jobs value.
 * Scheduling-dependent metadata (worker count, wall-clock) goes to
 * stderr only.
 */

#ifndef SPT_BENCH_BENCH_UTIL_H
#define SPT_BENCH_BENCH_UTIL_H

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "sim/exp_runner.h"
#include "sim/result_cache.h"
#include "workloads/workloads.h"

namespace spt {
namespace bench {

/** Common bench CLI: "--jobs N" (or SPT_JOBS), "--out PATH" for the
 *  JSON artifact, and "--cache DIR" / "--cache-mode MODE" for the
 *  on-disk result cache. Unknown arguments, an unwritable --out
 *  path, a bogus --cache-mode and a --cache-mode without a cache
 *  directory are fatal before anything is simulated: the benches
 *  run inside toolMain (common/cli.h), so they exit 2. A
 *  SPT_CACHE_MODE in the environment gets the same checks as the
 *  flag. */
struct BenchOptions {
    unsigned jobs = 1;
    std::string out_path;
};

/** Fails unless @p path can be opened for writing. The probe opens
 *  for append, so an existing artifact is not truncated, and removes
 *  the file again if the probe created it. */
inline void
requireWritable(const std::string &path)
{
    std::error_code ec;
    const bool existed = std::filesystem::exists(path, ec);
    FILE *f = std::fopen(path.c_str(), "a");
    if (!f)
        SPT_FATAL("cannot open " << path << " for writing");
    std::fclose(f);
    if (!existed)
        std::remove(path.c_str());
}

inline BenchOptions
parseBenchArgs(int argc, char **argv, const char *default_out)
{
    BenchOptions opt;
    opt.jobs = jobsFromArgs(argc, argv);
    opt.out_path = default_out;
    // The cache flags resolve through the environment: the runner
    // reads SPT_CACHE_DIR / SPT_CACHE_MODE itself, so every bench
    // (and every ExpRunner one constructs) picks them up with no
    // per-bench plumbing.
    const auto set_env = [](const char *name,
                            const std::string &value) {
        setenv(name, value.c_str(), /*overwrite=*/1);
    };
    std::optional<std::string> cache_mode;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value_of = [&](const char *flag) {
            if (i + 1 >= argc)
                SPT_FATAL(flag << " requires a value");
            return std::string(argv[++i]);
        };
        if (arg == "--jobs") {
            ++i; // value consumed by jobsFromArgs
        } else if (arg.rfind("--jobs=", 0) == 0) {
            // consumed by jobsFromArgs
        } else if (arg == "--out") {
            opt.out_path = value_of("--out");
        } else if (arg.rfind("--out=", 0) == 0) {
            opt.out_path = arg.substr(6);
        } else if (arg == "--cache") {
            set_env("SPT_CACHE_DIR", value_of("--cache"));
        } else if (arg.rfind("--cache=", 0) == 0) {
            set_env("SPT_CACHE_DIR", arg.substr(8));
        } else if (arg == "--cache-mode") {
            cache_mode = value_of("--cache-mode");
        } else if (arg.rfind("--cache-mode=", 0) == 0) {
            cache_mode = arg.substr(13);
        } else {
            SPT_FATAL("unknown argument " << arg
                      << " (expected --jobs N / --out PATH / "
                         "--cache DIR / --cache-mode MODE)");
        }
    }
    const char *mode_source = "--cache-mode";
    if (!cache_mode) {
        const char *env_mode = std::getenv("SPT_CACHE_MODE");
        if (env_mode != nullptr && *env_mode != '\0') {
            cache_mode = env_mode;
            mode_source = "SPT_CACHE_MODE";
        }
    }
    if (cache_mode) {
        parseCacheMode(*cache_mode); // fatal on an unknown mode
        const char *dir = std::getenv("SPT_CACHE_DIR");
        if (dir == nullptr || *dir == '\0')
            SPT_FATAL(mode_source << " needs a cache directory "
                      "(--cache DIR or SPT_CACHE_DIR)");
        set_env("SPT_CACHE_MODE", *cache_mode);
    }
    requireWritable(opt.out_path);
    return opt;
}

/** Reports sweep scheduling metadata on stderr (stdout must stay
 *  byte-identical across --jobs values) through spt::report(): the
 *  `[sweep]`/`[cache]` lines CI greps out of stderr. */
inline void
reportSweep(const ExpRunner &runner)
{
    const SweepStats &s = runner.lastSweep();
    char line[256];
    snprintf(line, sizeof line,
             "[sweep] %u worker(s), %llu unique job(s), "
             "%llu memo hit(s), %.2fs wall",
             s.workers, static_cast<unsigned long long>(s.unique_jobs),
             static_cast<unsigned long long>(s.memo_hits),
             s.wall_seconds);
    report(line);
    if (s.cache_mode != "off") {
        snprintf(line, sizeof line,
                 "[cache] mode=%s dir=%s hits=%llu misses=%llu "
                 "verify_mismatches=%llu bytes_written=%llu "
                 "saved=%.2fs",
                 s.cache_mode.c_str(), s.cache_dir.c_str(),
                 static_cast<unsigned long long>(s.cache.hits),
                 static_cast<unsigned long long>(s.cache.misses),
                 static_cast<unsigned long long>(
                     s.cache.verify_mismatches),
                 static_cast<unsigned long long>(
                     s.cache.bytes_written),
                 s.cache.host_seconds_saved);
        report(line);
    }
}

/** The workload-name lists the figure drivers sweep, honoring
 *  SPT_BENCH_QUICK. */
inline std::vector<std::string>
figureWorkloads(bool quick, const char *category = nullptr)
{
    std::vector<std::string> names;
    for (const Workload &w : allWorkloads())
        if (!category || w.category == category)
            names.push_back(w.name);
    if (quick) {
        names = {"pchase", "hashtab", "stream", "interp",
                 "ct-chacha20"};
        if (category && std::string(category) == "spec-like")
            names.pop_back(); // drop the constant-time kernel
    }
    return names;
}

inline const char *
modelName(AttackModel m)
{
    return m == AttackModel::kSpectre ? "Spectre" : "Futuristic";
}

/** Emits the `host_seconds` field (host wall-clock of one
 *  simulation, RunOutcome::host_seconds). This is the ONLY
 *  schedule-dependent value in any BENCH_ artifact — everything
 *  else is a pure function of the job grid. CI strips
 *  `host_seconds` before byte-comparing --jobs variants
 *  (.github/workflows/ci.yml); keep any new timing field under
 *  this same key so the filter keeps working. */
inline JsonWriter &
hostSecondsField(JsonWriter &jw, double seconds)
{
    return jw.field("host_seconds", seconds, 6);
}

/** Host seconds actually spent simulating outcomes
 *  [first, first+count): each unique run billed exactly once.
 *  Memoized slots are skipped explicitly — they carry
 *  host_seconds == 0 by contract (RunOutcome::memoized), but the
 *  skip keeps the aggregation correct even if that contract ever
 *  loosens, and documents that duplicates cost no host time. */
inline double
uniqueHostSeconds(const std::vector<RunOutcome> &outcomes,
                  std::size_t first, std::size_t count)
{
    double total = 0.0;
    for (std::size_t i = first; i < first + count; ++i)
        if (!outcomes[i].memoized)
            total += outcomes[i].host_seconds;
    return total;
}

inline double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

inline double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

} // namespace bench
} // namespace spt

#endif // SPT_BENCH_BENCH_UTIL_H
