/**
 * @file
 * Deterministic, seeded timing-fault injector (the FaultHooks
 * implementation the chaos campaigns install into the machine).
 *
 * Each FaultSite draws from its own xoshiro256** stream keyed by
 * (plan seed, site), so the Bernoulli sequence one site sees is
 * independent of every other site's rate and of how often other
 * sites are consulted. Rates are integer parts-per-million per
 * opportunity — no floating point anywhere near the draw, so the
 * decision sequence is exact across platforms and participates
 * cleanly in the sweep memoization key (sim/exp_runner.h).
 *
 * Thread confinement follows the Rng contract (common/rng.h): one
 * FaultInjector per Simulator, constructed and consulted entirely on
 * the worker running that job.
 */

#ifndef SPT_SIM_FAULT_INJECTOR_H
#define SPT_SIM_FAULT_INJECTOR_H

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "common/fault_hooks.h"
#include "common/rng.h"

namespace spt {

/** A campaign's per-job fault schedule. Every field participates in
 *  the job key (ResultCache::canonicalKey) — two jobs differing in
 *  any rate or the seed are distinct design points. */
struct FaultPlan {
    uint64_t seed = 0;
    /** Injection probability per opportunity, in parts-per-million;
     *  0 disables the site (and leaves its stream untouched). */
    std::array<uint32_t, kNumFaultSites> rate_ppm{};

    bool
    any() const
    {
        for (const uint32_t r : rate_ppm)
            if (r != 0)
                return true;
        return false;
    }

    void
    set(FaultSite site, uint32_t ppm)
    {
        rate_ppm[static_cast<std::size_t>(site)] = ppm;
    }
};

class FaultInjector : public FaultHooks
{
  public:
    explicit FaultInjector(const FaultPlan &plan);

    bool fire(FaultSite site) override;

    const FaultPlan &plan() const { return plan_; }
    /** Opportunities seen / faults injected at @p site so far. */
    uint64_t draws(FaultSite site) const
    {
        return draws_[static_cast<std::size_t>(site)];
    }
    uint64_t fired(FaultSite site) const
    {
        return fired_[static_cast<std::size_t>(site)];
    }
    uint64_t
    totalFired() const
    {
        uint64_t n = 0;
        for (const uint64_t f : fired_)
            n += f;
        return n;
    }

    /** "fault.<site>.draws" / "fault.<site>.injected" counters for
     *  campaign reports (only sites with a nonzero rate appear). */
    std::map<std::string, uint64_t> counters() const;

  private:
    FaultPlan plan_;
    std::array<Rng, kNumFaultSites> streams_;
    std::array<uint64_t, kNumFaultSites> draws_{};
    std::array<uint64_t, kNumFaultSites> fired_{};
};

} // namespace spt

#endif // SPT_SIM_FAULT_INJECTOR_H
