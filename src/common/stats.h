/**
 * @file
 * Lightweight statistics registry: named scalar counters and
 * histograms, registered per simulated component and dumped at the
 * end of simulation (the software analogue of gem5's stats.txt).
 */

#ifndef SPT_COMMON_STATS_H
#define SPT_COMMON_STATS_H

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
    friend class Snapshotter;  // checkpoint wire format (sim/snapshot)
    friend class ResultCache;  // result-record wire format
                               // (sim/result_cache)

    std::vector<uint64_t> buckets_;
    uint64_t samples_ = 0;
    uint64_t sum_ = 0;
    uint64_t max_ = 0;
};

/** Flat registry of named counters and histograms. */
class StatSet
{
  public:
    /** Increment a named counter, creating it on first use. */
    void inc(const std::string &name, uint64_t by = 1);

    /** Set a named counter to an absolute value. */
    void set(const std::string &name, uint64_t value);

    /** Reads a counter (0 if never touched). */
    uint64_t get(const std::string &name) const;

    /** Access (and lazily create) a named histogram. */
    Histogram &histogram(const std::string &name,
                         size_t num_buckets = 16);

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
    friend class Snapshotter; // checkpoint wire format (sim/snapshot)

    std::map<std::string, uint64_t> counters_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace spt

#endif // SPT_COMMON_STATS_H
