/**
 * @file
 * Parallel experiment runner (sim/exp_runner.h + common/parallel.h):
 * determinism across worker counts, memoization accounting,
 * exception-in-job propagation, the job-key sensitivity that keeps
 * distinct design points from merging, and the on-disk result cache
 * including resuming a killed sweep.
 */

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

#include "common/fnv.h"
#include "common/json.h"
#include "common/parallel.h"
#include "sim/exp_runner.h"
#include "workloads/golden_suite.h"
#include "workloads/workloads.h"

namespace spt {
namespace {

// Reduced-size programs so the whole file stays in the test tier.
struct TestPrograms {
    Program pchase = makePointerChase(256, 1);
    Program hashtab = makeHashTable(300, 300);
    Program chacha = makeChaCha20(2);
};

std::vector<RunJob>
mixedGrid(const TestPrograms &p)
{
    std::vector<EngineConfig> engines(3);
    engines[0].scheme = ProtectionScheme::kUnsafeBaseline;
    engines[1].scheme = ProtectionScheme::kSecureBaseline;
    engines[2].scheme = ProtectionScheme::kSpt;
    engines[2].spt.method = UntaintMethod::kBackward;
    engines[2].spt.shadow = ShadowKind::kShadowL1;

    std::vector<RunJob> grid;
    for (const Program *prog :
         {&p.pchase, &p.hashtab, &p.chacha}) {
        for (const EngineConfig &e : engines) {
            for (AttackModel m : {AttackModel::kFuturistic,
                                  AttackModel::kSpectre}) {
                RunJob job;
                job.program = prog;
                job.engine = e;
                job.attack_model = m;
                grid.push_back(job);
            }
        }
    }
    return grid;
}

void
expectSameOutcome(const RunOutcome &a, const RunOutcome &b,
                  size_t slot)
{
    EXPECT_EQ(a.result.cycles, b.result.cycles) << "slot " << slot;
    EXPECT_EQ(a.result.instructions, b.result.instructions)
        << "slot " << slot;
    EXPECT_EQ(a.result.halted, b.result.halted) << "slot " << slot;
    // Full engine counter maps must be identical, untaint.* included.
    EXPECT_EQ(a.engine_counters, b.engine_counters)
        << "slot " << slot;
    ASSERT_EQ(a.engine_histograms.size(), b.engine_histograms.size())
        << "slot " << slot;
    auto ita = a.engine_histograms.begin();
    auto itb = b.engine_histograms.begin();
    for (; ita != a.engine_histograms.end(); ++ita, ++itb) {
        EXPECT_EQ(ita->first, itb->first);
        ASSERT_EQ(ita->second.numBuckets(),
                  itb->second.numBuckets());
        EXPECT_EQ(ita->second.samples(), itb->second.samples());
        EXPECT_EQ(ita->second.maxSample(), itb->second.maxSample());
        for (size_t i = 0; i < ita->second.numBuckets(); ++i)
            EXPECT_EQ(ita->second.bucket(i), itb->second.bucket(i))
                << ita->first << " bucket " << i;
    }
}

TEST(ExpRunner, DeterministicAcrossWorkerCounts)
{
    const TestPrograms programs;
    const std::vector<RunJob> grid = mixedGrid(programs);

    ExpRunner serial(1);
    ExpRunner pooled(4);
    const std::vector<RunOutcome> a = serial.run(grid);
    const std::vector<RunOutcome> b = pooled.run(grid);
    EXPECT_EQ(serial.lastSweep().workers, 1u);
    EXPECT_EQ(pooled.lastSweep().workers, 4u);

    ASSERT_EQ(a.size(), grid.size());
    ASSERT_EQ(b.size(), grid.size());
    uint64_t untaint_events = 0;
    for (size_t i = 0; i < grid.size(); ++i) {
        expectSameOutcome(a[i], b[i], i);
        EXPECT_TRUE(a[i].result.halted) << "slot " << i;
        untaint_events += a[i].counter("untaint.forward") +
                          a[i].counter("untaint.backward");
    }
    // The SPT columns must actually exercise the untaint machinery,
    // or counter equality would be vacuous.
    EXPECT_GT(untaint_events, 0u);
}

TEST(ExpRunner, MemoizesDuplicateJobs)
{
    const TestPrograms programs;
    RunJob base;
    base.program = &programs.pchase;
    base.engine.scheme = ProtectionScheme::kSpt;

    RunJob other = base;
    other.attack_model = AttackModel::kSpectre;

    // The job key is content-addressed: a content-identical program
    // at a distinct address is the same design point.
    const Program hashtab_copy = makeHashTable(300, 300);
    RunJob twin_a = base;
    twin_a.program = &programs.hashtab;
    RunJob twin_b = base;
    twin_b.program = &hashtab_copy;

    // 7 slots: 2 design points over 5 slots and a program twin pair.
    const std::vector<RunJob> grid = {base,  other,  base,  base,
                                      other, twin_a, twin_b};
    ExpRunner runner(2);
    const std::vector<RunOutcome> out = runner.run(grid);
    EXPECT_EQ(runner.lastSweep().unique_jobs, 3u);
    EXPECT_EQ(runner.lastSweep().memo_hits, 4u);
    expectSameOutcome(out[0], out[2], 2);
    expectSameOutcome(out[0], out[3], 3);
    expectSameOutcome(out[1], out[4], 4);
    // The two design points genuinely differ.
    EXPECT_NE(out[0].result.cycles, out[1].result.cycles);

    EXPECT_FALSE(out[5].memoized);
    EXPECT_TRUE(out[6].memoized);
    EXPECT_EQ(out[6].host_seconds, 0.0);
    expectSameOutcome(out[5], out[6], 6);
}

TEST(ExpRunner, MemoHitsCarryNoHostTime)
{
    const TestPrograms programs;
    RunJob base;
    base.program = &programs.pchase;
    base.engine.scheme = ProtectionScheme::kSpt;

    // 4 slots, 1 unique design point: summing host_seconds across
    // the sweep must bill the single simulation once, not 4x —
    // the former memo behavior copied the unique run's timing into
    // every duplicate slot and inflated per-config totals.
    const std::vector<RunJob> grid = {base, base, base, base};
    const std::vector<RunOutcome> out = ExpRunner(2).run(grid);
    EXPECT_FALSE(out[0].memoized);
    EXPECT_GT(out[0].host_seconds, 0.0);
    double total = 0.0;
    unsigned memo_hits = 0;
    for (const RunOutcome &o : out) {
        total += o.host_seconds;
        if (o.memoized) {
            ++memo_hits;
            EXPECT_EQ(o.host_seconds, 0.0);
        }
    }
    EXPECT_EQ(memo_hits, 3u);
    EXPECT_EQ(total, out[0].host_seconds);
}

TEST(ExpRunner, JobKeyCoversEveryDescriptorField)
{
    // The runner's only dedup key is ResultCache::canonicalKey,
    // whose field-by-field sensitivity is pinned in
    // ResultCache.CanonicalKeyCoversEveryDescriptorField. Here the
    // runner itself must give every single-field variant of a job
    // its own simulation and merge only a label-only difference.
    const TestPrograms programs;
    RunJob job;
    job.program = &programs.pchase;
    job.engine.scheme = ProtectionScheme::kSpt;

    std::vector<RunJob> grid = {job};
    const auto vary = [&](auto &&mutate) {
        RunJob j = job;
        mutate(j);
        grid.push_back(j);
    };
    vary([&](RunJob &j) { j.program = &programs.hashtab; });
    vary([](RunJob &j) { j.engine.scheme = ProtectionScheme::kStt; });
    vary([](RunJob &j) { j.engine.spt.method = UntaintMethod::kIdeal; });
    vary([](RunJob &j) { j.engine.spt.shadow = ShadowKind::kShadowMem; });
    vary([](RunJob &j) { j.engine.spt.broadcast_width = 7; });
    vary([](RunJob &j) {
        j.engine.spt.mutation = SptConfig::Mutation::kLeakyMemGate;
    });
    vary([](RunJob &j) { j.attack_model = AttackModel::kSpectre; });
    vary([](RunJob &j) { j.seed = 1; });
    vary([](RunJob &j) { j.max_cycles = 12345; });
    vary([](RunJob &j) { j.trace = true; });
    vary([](RunJob &j) { j.profile = true; });
    vary([](RunJob &j) { j.interval_stats = 1000; });
    vary([](RunJob &j) { j.faults.seed = 7; });
    vary([](RunJob &j) { j.faults.rate_ppm[0] = 100; });
    vary([](RunJob &j) { j.invariants = true; });
    vary([](RunJob &j) { j.watchdog_cycles = 4096; });
    vary([](RunJob &j) { j.fast_forward = true; });
    const size_t variants = grid.size();
    vary([](RunJob &j) { j.label = "a pretty name"; });

    ExpRunner runner(2);
    const std::vector<RunOutcome> out = runner.run(grid);
    EXPECT_EQ(runner.lastSweep().unique_jobs, variants);
    EXPECT_EQ(runner.lastSweep().memo_hits, 1u);
    for (size_t i = 0; i < variants; ++i)
        EXPECT_FALSE(out[i].memoized) << "variant " << i;
    EXPECT_TRUE(out.back().memoized);
    EXPECT_EQ(out.back().job_desc, "a pretty name");
}

TEST(ExpRunner, NullProgramFailsTheSweep)
{
    RunJob job; // program left null
    ExpRunner runner(2);
    EXPECT_THROW(runner.run({job}), FatalError);
}

TEST(ExpRunner, ThrowingJobFailsSweepCleanly)
{
    const TestPrograms programs;
    std::vector<RunJob> grid;
    for (int i = 0; i < 6; ++i) {
        RunJob job;
        job.program = &programs.pchase;
        job.engine.scheme = ProtectionScheme::kUnsafeBaseline;
        job.seed = static_cast<uint64_t>(i); // distinct: no memo
        grid.push_back(job);
    }
    // An out-of-range scheme makes the engine factory panic inside
    // the worker; the sweep must rethrow after the pool has joined
    // (no deadlock, no crash), for any worker count.
    grid[3].engine.scheme = static_cast<ProtectionScheme>(0xee);
    EXPECT_THROW(ExpRunner(1).run(grid), PanicError);
    EXPECT_THROW(ExpRunner(4).run(grid), PanicError);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    constexpr size_t kN = 257;
    for (unsigned jobs : {1u, 3u, 8u}) {
        std::vector<std::atomic<int>> hits(kN);
        parallelFor(kN, jobs,
                    [&](size_t i) { hits[i].fetch_add(1); });
        for (size_t i = 0; i < kN; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
    // Degenerate sizes.
    parallelFor(0, 4, [](size_t) { FAIL() << "fn called for n=0"; });
    std::atomic<int> once{0};
    parallelFor(1, 8, [&](size_t) { once.fetch_add(1); });
    EXPECT_EQ(once.load(), 1);
}

TEST(ParallelFor, PropagatesFirstExceptionAndStops)
{
    std::atomic<size_t> ran{0};
    try {
        parallelFor(1000, 4, [&](size_t i) {
            if (i == 10)
                throw std::runtime_error("job 10 failed");
            ran.fetch_add(1);
        });
        FAIL() << "exception did not propagate";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 10 failed");
    }
    // Workers stop claiming new indices once a job has thrown; with
    // 4 workers at most a handful of in-flight jobs finish after
    // the failure.
    EXPECT_LT(ran.load(), 1000u);
}

// --------------------------------------------------------------------
// On-disk result cache (sim/result_cache.h)
// --------------------------------------------------------------------

std::string
freshCacheDir(const char *name)
{
    const std::string dir = testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(ResultCache, ColdThenWarmOutcomesAreByteIdentical)
{
    const TestPrograms programs;
    const std::vector<RunJob> grid = mixedGrid(programs);
    RunnerPolicy policy;
    policy.cache_dir = freshCacheDir("spt_cache_coldwarm");

    ExpRunner cold(1);
    const std::vector<RunOutcome> a = cold.run(grid, policy);
    EXPECT_EQ(cold.lastSweep().cache_mode, "read_write");
    EXPECT_EQ(cold.lastSweep().cache.hits, 0u);
    EXPECT_EQ(cold.lastSweep().cache.misses, grid.size());
    EXPECT_GT(cold.lastSweep().cache.bytes_written, 0u);

    // Different process would behave identically; here a different
    // runner at a different worker count stands in for it.
    ExpRunner warm(4);
    const std::vector<RunOutcome> b = warm.run(grid, policy);
    EXPECT_EQ(warm.lastSweep().cache.hits, grid.size());
    EXPECT_EQ(warm.lastSweep().cache.misses, 0u);
    EXPECT_EQ(warm.lastSweep().cache.bytes_written, 0u);
    EXPECT_GT(warm.lastSweep().cache.host_seconds_saved, 0.0);

    ASSERT_EQ(b.size(), a.size());
    for (size_t i = 0; i < a.size(); ++i) {
        expectSameOutcome(a[i], b[i], i);
        // The full wire encoding — untaint counters, histograms,
        // and the *replayed* host_seconds — must match, which is
        // what makes warm JSON artifacts cmp-identical to cold.
        EXPECT_EQ(ResultCache::encodeOutcome(a[i]),
                  ResultCache::encodeOutcome(b[i]))
            << "slot " << i;
        EXPECT_EQ(a[i].job_desc, b[i].job_desc) << "slot " << i;
    }
}

TEST(ResultCache, CorruptedEntryFallsBackToSimulation)
{
    const TestPrograms programs;
    RunJob job;
    job.program = &programs.pchase;
    job.engine.scheme = ProtectionScheme::kSpt;
    const std::vector<RunJob> grid = {job};
    RunnerPolicy policy;
    policy.cache_dir = freshCacheDir("spt_cache_corrupt");

    ExpRunner runner(1);
    const std::vector<RunOutcome> a = runner.run(grid, policy);

    ResultCache cache(policy.cache_dir, CacheMode::kReadWrite);
    const std::string key = ResultCache::canonicalKey(grid[0]);
    ASSERT_FALSE(key.empty());
    const std::string path = cache.entryPath(key);
    ASSERT_TRUE(std::filesystem::exists(path));

    // Truncation: decode must degrade to a miss, the job
    // re-simulates to the same outcome, and read_write repairs the
    // entry.
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) / 2);
    const std::vector<RunOutcome> b = runner.run(grid, policy);
    EXPECT_EQ(runner.lastSweep().cache.hits, 0u);
    EXPECT_EQ(runner.lastSweep().cache.misses, 1u);
    EXPECT_GT(runner.lastSweep().cache.bytes_written, 0u);
    // The re-simulation pays fresh host time; everything
    // deterministic is identical.
    EXPECT_EQ(ResultCache::encodeOutcomeDeterministic(a[0]),
              ResultCache::encodeOutcomeDeterministic(b[0]));

    // Bit rot: flip one byte mid-record; the content-hash trailer
    // must reject it.
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(static_cast<std::streamoff>(
            std::filesystem::file_size(path) / 2));
        f.put('\xa5');
    }
    const std::vector<RunOutcome> c = runner.run(grid, policy);
    EXPECT_EQ(runner.lastSweep().cache.hits, 0u);
    EXPECT_EQ(runner.lastSweep().cache.misses, 1u);
    EXPECT_EQ(ResultCache::encodeOutcomeDeterministic(a[0]),
              ResultCache::encodeOutcomeDeterministic(c[0]));

    // And after the repair, a clean hit again — byte-identical to
    // the run that repaired the entry, recorded timing included.
    const std::vector<RunOutcome> d = runner.run(grid, policy);
    EXPECT_EQ(runner.lastSweep().cache.hits, 1u);
    EXPECT_EQ(ResultCache::encodeOutcome(c[0]),
              ResultCache::encodeOutcome(d[0]));
}

TEST(ResultCache, VerifyModeDetectsPoisonedEntry)
{
    const TestPrograms programs;
    RunJob job;
    job.program = &programs.pchase;
    job.engine.scheme = ProtectionScheme::kSpt;
    const std::vector<RunJob> grid = {job};
    RunnerPolicy policy;
    policy.cache_dir = freshCacheDir("spt_cache_poison");

    ExpRunner runner(1);
    const std::vector<RunOutcome> a = runner.run(grid, policy);

    // Poison the entry with a *well-formed* record whose payload
    // lies about the outcome — only verify mode can catch this.
    RunOutcome tampered = a[0];
    tampered.result.cycles += 1;
    {
        ResultCache cache(policy.cache_dir, CacheMode::kReadWrite);
        cache.store(ResultCache::canonicalKey(grid[0]), tampered);
    }

    // A plain warm run trusts the poisoned record...
    const std::vector<RunOutcome> p = runner.run(grid, policy);
    EXPECT_EQ(p[0].result.cycles, a[0].result.cycles + 1);

    // ...verify mode re-simulates, counts the mismatch, and the
    // fresh outcome wins.
    RunnerPolicy verify = policy;
    verify.cache_mode = CacheMode::kVerify;
    const std::vector<RunOutcome> v = runner.run(grid, verify);
    EXPECT_EQ(runner.lastSweep().cache_mode, "verify");
    EXPECT_EQ(runner.lastSweep().cache.hits, 1u);
    EXPECT_EQ(runner.lastSweep().cache.verify_mismatches, 1u);
    EXPECT_EQ(runner.lastSweep().cache.bytes_written, 0u);
    EXPECT_EQ(v[0].result.cycles, a[0].result.cycles);

    // A clean cache verifies silently.
    {
        ResultCache cache(policy.cache_dir, CacheMode::kReadWrite);
        cache.store(ResultCache::canonicalKey(grid[0]), a[0]);
    }
    runner.run(grid, verify);
    EXPECT_EQ(runner.lastSweep().cache.verify_mismatches, 0u);
}

TEST(ResultCache, StoreLeavesForeignTempFilesAlone)
{
    // Several processes may share one cache directory, so a store
    // must never write through a temp file it did not create itself:
    // another writer's half-written `<entry>.tmp0` (a file) or a
    // directory squatting on that name keeps its content, and the
    // store still lands.
    const TestPrograms programs;
    RunJob job;
    job.program = &programs.pchase;
    const std::vector<RunOutcome> out = ExpRunner(1).run({job});
    const std::string key = ResultCache::canonicalKey(job);
    const std::string other_key = key + "|other";
    ASSERT_FALSE(key.empty());

    const std::string dir = freshCacheDir("spt_cache_foreign_tmp");
    ResultCache reader(dir, CacheMode::kReadOnly);
    const std::string foreign_file = reader.entryPath(key) + ".tmp0";
    const std::string foreign_dir =
        reader.entryPath(other_key) + ".tmp0";
    const std::string junk = "another writer's bytes";
    std::ofstream(foreign_file, std::ios::binary) << junk;
    std::filesystem::create_directories(foreign_dir);

    // One writer per store, as with separate sweeps or processes.
    ResultCache(dir, CacheMode::kReadWrite).store(key, out[0]);
    ResultCache(dir, CacheMode::kReadWrite).store(other_key, out[0]);
    for (const std::string &k : {key, other_key}) {
        RunOutcome hit;
        EXPECT_TRUE(reader.lookup(k, &hit)) << k;
        EXPECT_TRUE(ResultCache::encodeOutcome(hit) ==
                    ResultCache::encodeOutcome(out[0]))
            << k;
    }
    std::ifstream is(foreign_file, std::ios::binary);
    const std::string left((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(left, junk);
    EXPECT_TRUE(std::filesystem::is_directory(foreign_dir));
    // Two entries plus the two foreign names: no temp file of this
    // writer is left behind.
    size_t files = 0;
    for ([[maybe_unused]] const auto &e :
         std::filesystem::directory_iterator(dir))
        ++files;
    EXPECT_EQ(files, 4u);
}

TEST(ResultCache, CanonicalKeyIsContentAddressed)
{
    // Two content-identical programs at distinct addresses share
    // one key; different content does not.
    const Program a = makePointerChase(256, 1);
    const Program b = makePointerChase(256, 1);
    const Program c = makePointerChase(300, 1);
    RunJob ja, jb, jc;
    ja.program = &a;
    jb.program = &b;
    jc.program = &c;
    EXPECT_EQ(ResultCache::canonicalKey(ja),
              ResultCache::canonicalKey(jb));
    EXPECT_NE(ResultCache::canonicalKey(ja),
              ResultCache::canonicalKey(jc));

    // The full key text of golden case 0 under SPT{Bwd,ShadowL1}, as
    // record_golden_stats --fingerprints hashes it. Existing cache
    // directories and CI's seeded-cache key depend on this text, so a
    // change to it must be a deliberate schema bump, not a side
    // effect of a refactor.
    const GoldenCase &golden = goldenSuite().at(0);
    RunJob jg;
    jg.program = &golden.program;
    jg.engine.scheme = ProtectionScheme::kSpt;
    jg.engine.spt.method = UntaintMethod::kBackward;
    jg.engine.spt.shadow = ShadowKind::kShadowL1;
    jg.attack_model = golden.model;
    EXPECT_EQ(golden.name, "pchase/futuristic");
    EXPECT_EQ(ResultCache::canonicalKey(jg),
              "resv2|prog=3e82cf8edc082265|sch=3|m=2|sh=1|bw=3|st=0"
              "|mut=0|km=0000000000000000|am=1|seed=0|mc=500000000"
              "|tr=0|pf=0|iv=0|inv=0|wd=0|ff=0|ca=0|fs=0|f0=0|f1=0"
              "|f2=0|f3=0|f4=0|f5=0|ck=0");
}

TEST(ResultCache, OutcomeRecordBytesArePinned)
{
    // The record payload of the same golden case and config as the
    // pinned key above. Records already on disk, written by other
    // builds, decode under this layout: a field dropped without
    // writing the constant it held, or a field reordered, must fail
    // here instead of turning every stored record into a miss.
    const GoldenCase &golden = goldenSuite().at(0);
    RunJob job;
    job.program = &golden.program;
    job.engine.scheme = ProtectionScheme::kSpt;
    job.engine.spt.method = UntaintMethod::kBackward;
    job.engine.spt.shadow = ShadowKind::kShadowL1;
    job.attack_model = golden.model;
    const std::string bytes = ResultCache::encodeOutcomeDeterministic(
        ExpRunner(1).run({job}).at(0));
    EXPECT_EQ(bytes.size(), 846u);
    EXPECT_EQ(fnv1a(bytes), 0x1a3696a7605d45c5ull);
}

TEST(ResultCache, CanonicalKeyCoversEveryDescriptorField)
{
    const TestPrograms programs;
    RunJob job;
    job.program = &programs.pchase;
    job.engine.scheme = ProtectionScheme::kSpt;

    EXPECT_EQ(ResultCache::canonicalKey(job),
              ResultCache::canonicalKey(job));

    std::set<std::string> keys;
    keys.insert(ResultCache::canonicalKey(job));
    auto expect_fresh = [&](const RunJob &j, const char *what) {
        const std::string key = ResultCache::canonicalKey(j);
        ASSERT_FALSE(key.empty()) << what;
        EXPECT_TRUE(keys.insert(key).second)
            << what << " not reflected in canonicalKey";
    };

    RunJob j = job;
    j.program = &programs.hashtab;
    expect_fresh(j, "program content");
    j = job;
    j.engine.scheme = ProtectionScheme::kStt;
    expect_fresh(j, "scheme");
    j = job;
    j.engine.spt.method = UntaintMethod::kIdeal;
    expect_fresh(j, "untaint method");
    j = job;
    j.engine.spt.shadow = ShadowKind::kShadowMem;
    expect_fresh(j, "shadow kind");
    j = job;
    j.engine.spt.broadcast_width = 7;
    expect_fresh(j, "broadcast width");
    j = job;
    j.engine.spt.mutation = SptConfig::Mutation::kLeakyMemGate;
    expect_fresh(j, "mutation");
    j = job;
    j.attack_model = AttackModel::kSpectre;
    expect_fresh(j, "attack model");
    j = job;
    j.seed = 1;
    expect_fresh(j, "seed");
    j = job;
    j.max_cycles = 12345;
    expect_fresh(j, "max_cycles");
    j = job;
    j.trace = true;
    expect_fresh(j, "trace");
    j = job;
    j.profile = true;
    expect_fresh(j, "profile");
    j = job;
    j.interval_stats = 1000;
    expect_fresh(j, "interval_stats");
    j = job;
    j.faults.seed = 7;
    expect_fresh(j, "fault seed");
    j = job;
    j.faults.rate_ppm[0] = 100;
    expect_fresh(j, "fault rate");
    j = job;
    j.invariants = true;
    expect_fresh(j, "invariants");
    j = job;
    j.watchdog_cycles = 4096;
    expect_fresh(j, "watchdog");
    j = job;
    j.fast_forward = true;
    expect_fresh(j, "fast_forward");

    // label is documentation, not identity — same key.
    j = job;
    j.label = "a pretty name";
    EXPECT_EQ(ResultCache::canonicalKey(j),
              ResultCache::canonicalKey(job));
}

TEST(ResultCache, FailedOutcomesAreNotStored)
{
    const TestPrograms programs;
    RunJob job;
    job.program = &programs.pchase;
    job.engine.scheme = static_cast<ProtectionScheme>(0xee);
    const std::vector<RunJob> grid = {job};
    RunnerPolicy policy;
    policy.cache_dir = freshCacheDir("spt_cache_failed");
    policy.keep_going = true;

    ExpRunner runner(1);
    const std::vector<RunOutcome> a = runner.run(grid, policy);
    EXPECT_EQ(a[0].status, RunStatus::kCrash);
    EXPECT_EQ(runner.lastSweep().cache.bytes_written, 0u);

    // The rerun must re-simulate (and still rethrow under the
    // default fail-fast policy): a failure is never frozen into
    // the cache.
    const std::vector<RunOutcome> b = runner.run(grid, policy);
    EXPECT_EQ(runner.lastSweep().cache.hits, 0u);
    EXPECT_EQ(runner.lastSweep().cache.misses, 1u);
    EXPECT_EQ(b[0].status, RunStatus::kCrash);
    RunnerPolicy fail_fast = policy;
    fail_fast.keep_going = false;
    EXPECT_THROW(runner.run(grid, fail_fast), PanicError);
}

TEST(ResultCache, ResumeAfterKillReSimulatesOnlyLostSlots)
{
    // The runner stores each clean slot the moment it finishes, so a
    // sweep killed after k stores leaves exactly those k entries —
    // plus, at worst, one torn temp file from a store in progress.
    // Rerunning the full grid on that cache must serve the k slots,
    // re-simulate every other one, and reproduce an uninterrupted
    // run byte for byte, at any worker count.
    const TestPrograms programs;
    const std::vector<RunJob> grid = mixedGrid(programs);
    constexpr size_t kStored = 7;
    const std::vector<RunJob> prefix(grid.begin(),
                                     grid.begin() + kStored);
    const std::vector<RunOutcome> reference = ExpRunner(1).run(grid);

    for (const unsigned workers : {1u, 4u}) {
        SCOPED_TRACE(testing::Message() << workers << " worker(s)");
        RunnerPolicy policy;
        policy.cache_dir = freshCacheDir("spt_cache_resume");
        ExpRunner(1).run(prefix, policy);

        const ResultCache cache(policy.cache_dir,
                                CacheMode::kReadOnly);
        const std::string torn =
            cache.entryPath(ResultCache::canonicalKey(grid[kStored])) +
            ".tmp0";
        std::ofstream(torn, std::ios::binary) << "SPTRES01 torn";

        ExpRunner runner(workers);
        const std::vector<RunOutcome> resumed = runner.run(grid, policy);
        EXPECT_EQ(runner.lastSweep().cache.hits, kStored);
        EXPECT_EQ(runner.lastSweep().cache.misses,
                  grid.size() - kStored);
        ASSERT_EQ(resumed.size(), reference.size());
        for (size_t i = 0; i < grid.size(); ++i)
            EXPECT_EQ(
                ResultCache::encodeOutcomeDeterministic(resumed[i]),
                ResultCache::encodeOutcomeDeterministic(reference[i]))
                << "slot " << i;
    }
}

TEST(JsonWriter, StableFormattingAndEscaping)
{
    JsonWriter json;
    json.beginObject();
    json.field("name", "a\"b\\c\nd");
    json.field("count", uint64_t{42});
    json.field("ratio", 1.0 / 3.0, 3);
    json.field("flag", true);
    json.key("list").beginArray();
    json.value(uint64_t{1}).value(uint64_t{2});
    json.endArray();
    json.endObject();
    EXPECT_EQ(json.str(),
              "{\n"
              "  \"name\": \"a\\\"b\\\\c\\nd\",\n"
              "  \"count\": 42,\n"
              "  \"ratio\": 0.333,\n"
              "  \"flag\": true,\n"
              "  \"list\": [\n"
              "    1,\n"
              "    2\n"
              "  ]\n"
              "}");
}

} // namespace
} // namespace spt
