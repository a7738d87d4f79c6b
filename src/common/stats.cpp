#include "common/stats.h"

#include <cmath>

#include "common/json.h"
#include "common/logging.h"

namespace spt {

Histogram::Histogram(size_t num_buckets)
    : buckets_(num_buckets, 0)
{
    SPT_ASSERT(num_buckets > 0, "histogram needs at least one bucket");
}

void
Histogram::record(uint64_t value, uint64_t count)
{
    // Bucket i < N-1 holds exactly value i; the last bucket
    // overflows, holding every value >= N-1.
    const size_t idx =
        value >= buckets_.size() - 1 ? buckets_.size() - 1
                                     : static_cast<size_t>(value);
    buckets_[idx] += count;
    samples_ += count;
    sum_ += value * count;
    if (value > max_)
        max_ = value;
}

double
Histogram::mean() const
{
    return samples_ == 0 ? 0.0
                         : static_cast<double>(sum_) /
                               static_cast<double>(samples_);
}

double
Histogram::cdfAt(uint64_t v) const
{
    if (samples_ == 0)
        return 0.0;
    uint64_t below = 0;
    if (v < buckets_.size() - 1) {
        // Exact: bucket i holds only samples of value i.
        for (size_t i = 0; i <= static_cast<size_t>(v); ++i)
            below += buckets_[i];
    } else {
        // The overflow bucket mixes values >= N-1; counting it for
        // any v it only partially covers would overcount (the old
        // off-by-one: cdfAt(N-1) returned 1.0 even with samples
        // beyond N-1). Include it only once v covers the largest
        // recorded sample.
        for (size_t i = 0; i < buckets_.size(); ++i)
            below += buckets_[i];
        if (v < max_)
            below -= buckets_.back();
    }
    return static_cast<double>(below) / static_cast<double>(samples_);
}

uint64_t
Histogram::percentile(double p) const
{
    if (samples_ == 0)
        return 0;
    if (p > 1.0)
        p = 1.0;
    // The target rank: the smallest count of samples whose fraction
    // reaches p. ceil() keeps percentile consistent with cdfAt
    // (cdfAt(percentile(p)) >= p) for any p in (0, 1].
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(p * static_cast<double>(samples_)));
    if (rank < 1)
        rank = 1;
    if (rank > samples_)
        rank = samples_;
    uint64_t below = 0;
    for (size_t i = 0; i + 1 < buckets_.size(); ++i) {
        below += buckets_[i];
        if (below >= rank)
            return i; // exact: bucket i holds only value i
    }
    // The rank lands in the overflow bucket, where per-value counts
    // are gone; maxSample() is the only value whose cdf is known
    // (1.0), so clamp there — mirroring cdfAt's overflow handling.
    return max_;
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    samples_ = 0;
    sum_ = 0;
    max_ = 0;
}

void
StatSet::inc(const std::string &name, uint64_t by)
{
    counters_[name] += by;
}

void
StatSet::set(const std::string &name, uint64_t value)
{
    counters_[name] = value;
}

uint64_t
StatSet::get(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

Histogram &
StatSet::histogram(const std::string &name, size_t num_buckets)
{
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        it = histograms_.emplace(name, Histogram(num_buckets)).first;
    return it->second;
}

void
StatSet::reset()
{
    counters_.clear();
    histograms_.clear();
    counter_slots_.clear();
    histogram_slots_.clear();
}

void
StatSet::dump(std::ostream &os) const
{
    for (const auto &[name, value] : counters_)
        os << name << " " << value << "\n";
    for (const auto &[name, h] : histograms_) {
        os << name << ".samples " << h.samples() << "\n";
        os << name << ".mean " << h.mean() << "\n";
        os << name << ".p50 " << h.percentile(0.50) << "\n";
        os << name << ".p95 " << h.percentile(0.95) << "\n";
    }
}

void
StatSet::dumpJson(JsonWriter &jw) const
{
    jw.beginObject();
    for (const auto &[name, value] : counters_)
        jw.field(name, value);
    for (const auto &[name, h] : histograms_) {
        jw.key(name).beginObject();
        jw.field("samples", h.samples());
        jw.field("mean", h.mean(), 6);
        jw.field("p50", h.percentile(0.50));
        jw.field("p95", h.percentile(0.95));
        jw.field("max", h.maxSample());
        jw.endObject();
    }
    jw.endObject();
}

} // namespace spt
