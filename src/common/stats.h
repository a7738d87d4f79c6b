/**
 * @file
 * Lightweight statistics registry: named scalar counters and
 * histograms, registered per simulated component and dumped at the
 * end of simulation (the software analogue of gem5's stats.txt).
 */

#ifndef SPT_COMMON_STATS_H
#define SPT_COMMON_STATS_H

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace spt {

class JsonWriter;

/** A simple bucketed histogram of non-negative integer samples. */
class Histogram
{
  public:
    /** @param num_buckets bucket i < num_buckets-1 holds exactly the
     *  samples of value i; the last bucket is the overflow bucket,
     *  holding every sample of value >= num_buckets-1. */
    explicit Histogram(size_t num_buckets = 16);

    void record(uint64_t value, uint64_t count = 1);

    uint64_t samples() const { return samples_; }
    uint64_t bucket(size_t i) const { return buckets_.at(i); }
    size_t numBuckets() const { return buckets_.size(); }
    /** Largest value recorded so far (0 if no samples). */
    uint64_t maxSample() const { return max_; }
    /** Arithmetic mean (0.0 if no samples — the dump paths derive
     *  mean/p50/p95 for never-recorded histograms, so every derived
     *  statistic is defined on the empty histogram and never
     *  divides by the zero sample count; pinned in tests). */
    double mean() const;

    /** Fraction of samples with value <= v (cumulative). Exact for
     *  v < num_buckets-1. In the overflow range the per-value
     *  information is gone: the overflow bucket is included only
     *  once v covers every recorded sample (v >= maxSample()), so
     *  the result is exact at both ends and a lower bound in
     *  between — never an overcount. */
    double cdfAt(uint64_t v) const;

    /** Smallest value v with cdfAt(v) >= p (the inverse of cdfAt,
     *  so the two are consistent by construction): exact below the
     *  overflow bucket; any percentile landing in the overflow range
     *  clamps to maxSample(), the only value there with a known
     *  cdf. @p p is clamped to (0, 1]; returns 0 with no samples. */
    uint64_t percentile(double p) const;

    void reset();

  private:
    friend class ResultCache;  // result-record wire format
                               // (sim/result_cache)

    std::vector<uint64_t> buckets_;
    uint64_t samples_ = 0;
    uint64_t sum_ = 0;
    uint64_t max_ = 0;
};

/**
 * Flat registry of named counters and histograms.
 *
 * inc() and histogram() taking a `const char *` are the per-cycle
 * fast path: the first call with a given name pointer resolves it to
 * its map slot and caches the slot under the pointer, so later calls
 * build no std::string and walk no map. Precondition: such a name has
 * static storage duration (a string literal or an entry of a constant
 * table), so its address names the same characters for the whole
 * life of the StatSet. Names built at run time must use the
 * std::string overloads. Map slots stay valid until reset(), which
 * also drops the cache; copies and moves start with an empty cache.
 */
class StatSet
{
  public:
    /** Increment a named counter, creating it on first use. */
    void inc(const std::string &name, uint64_t by = 1);
    /** Same, for a name of static storage duration (see above). */
    void inc(const char *name, uint64_t by = 1);

    /** Set a named counter to an absolute value. */
    void set(const std::string &name, uint64_t value);

    /** Reads a counter (0 if never touched). */
    uint64_t get(const std::string &name) const;

    /** Access (and lazily create) a named histogram. */
    Histogram &histogram(const std::string &name,
                         size_t num_buckets = 16);
    /** Same, for a name of static storage duration (see above). */
    Histogram &histogram(const char *name, size_t num_buckets = 16);

    const std::map<std::string, uint64_t> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, Histogram> &histograms() const
    {
        return histograms_;
    }

    void reset();

    /** Dumps all counters in "name value" lines sorted by name;
     *  histograms add .samples/.mean/.p50/.p95 lines. */
    void dump(std::ostream &os) const;

    /** Emits the same content as dump() as one JSON object (counter
     *  fields, histograms as nested objects) at the writer's current
     *  position. */
    void dumpJson(JsonWriter &jw) const;

  private:
    /** Open-addressed table from a name's address to its map slot.
     *  It never evicts: past kMaxUsed names, further names take the
     *  uncached map path. Copies and moves start empty, because the
     *  slots point into the source StatSet's maps. */
    template <typename T, size_t kCapacity>
    class SlotCache
    {
      public:
        SlotCache() = default;
        SlotCache(const SlotCache &) {}
        SlotCache(SlotCache &&other) noexcept { other.clear(); }
        SlotCache &
        operator=(const SlotCache &)
        {
            clear();
            return *this;
        }
        SlotCache &
        operator=(SlotCache &&other) noexcept
        {
            clear();
            other.clear();
            return *this;
        }

        T *
        find(const char *name) const
        {
            // Terminates: kMaxUsed < kCapacity leaves an empty entry.
            for (size_t i = home(name);; i = (i + 1) % kCapacity) {
                if (entries_[i].name == name)
                    return entries_[i].slot;
                if (entries_[i].name == nullptr)
                    return nullptr;
            }
        }

        void
        insert(const char *name, T *slot)
        {
            if (used_ == kMaxUsed)
                return;
            size_t i = home(name);
            while (entries_[i].name != nullptr)
                i = (i + 1) % kCapacity;
            entries_[i] = {name, slot};
            ++used_;
        }

        void
        clear()
        {
            entries_ = {};
            used_ = 0;
        }

      private:
        static_assert((kCapacity & (kCapacity - 1)) == 0,
                      "capacity must be a power of two");
        static constexpr size_t kMaxUsed = kCapacity * 3 / 4;
        static constexpr int kShift = 64 - std::countr_zero(kCapacity);

        static size_t
        home(const char *name)
        {
            // Fibonacci hashing: the top bits of address * 2^64/phi.
            return static_cast<size_t>(
                (static_cast<uint64_t>(
                     reinterpret_cast<uintptr_t>(name)) *
                 0x9E3779B97F4A7C15ull) >>
                kShift);
        }

        struct Entry {
            const char *name = nullptr;
            T *slot = nullptr;
        };
        std::array<Entry, kCapacity> entries_{};
        size_t used_ = 0;
    };

    std::map<std::string, uint64_t> counters_;
    std::map<std::string, Histogram> histograms_;
    SlotCache<uint64_t, 128> counter_slots_;
    SlotCache<Histogram, 8> histogram_slots_;
};

inline void
StatSet::inc(const char *name, uint64_t by)
{
    uint64_t *slot = counter_slots_.find(name);
    if (slot == nullptr) {
        slot = &counters_[name];
        counter_slots_.insert(name, slot);
    }
    *slot += by;
}

inline Histogram &
StatSet::histogram(const char *name, size_t num_buckets)
{
    Histogram *slot = histogram_slots_.find(name);
    if (slot == nullptr) {
        slot = &histogram(std::string(name), num_buckets);
        histogram_slots_.insert(name, slot);
    }
    return *slot;
}

} // namespace spt

#endif // SPT_COMMON_STATS_H
