/**
 * @file
 * Deterministic pseudo-random number generation for workload inputs.
 *
 * Workload data must be bit-identical across runs and platforms so
 * that experiment results are reproducible; we therefore use our own
 * xoshiro256** implementation rather than std::mt19937 (whose
 * distributions are implementation-defined).
 *
 * Threading contract (audited for the parallel sweep runner,
 * sim/exp_runner.h): there are no global Rng instances anywhere in
 * the tree — every user (program_fuzzer, spec_kernels, ct_kernels)
 * constructs a function-local Rng from a fixed seed, so each
 * instance is confined to the thread that created it. Keep it that
 * way: an Rng must never be shared across threads (next() mutates
 * s_[] unsynchronized), and any future cross-thread use needs one
 * independently-seeded instance per thread. The lazily-built
 * workload/golden-suite registries that consume these generators
 * are C++11 magic statics: initialization is thread-safe and the
 * vectors are immutable afterwards.
 */

#ifndef SPT_COMMON_RNG_H
#define SPT_COMMON_RNG_H

#include <cstdint>

namespace spt {

/** xoshiro256** deterministic PRNG. */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x5eed5eed5eed5eedULL);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform in [0, bound) — bound must be nonzero. */
    uint64_t nextBelow(uint64_t bound);

    /** Uniform in [lo, hi] inclusive. */
    int64_t nextRange(int64_t lo, int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw with probability @p p. */
    bool nextBool(double p = 0.5);

  private:
    uint64_t s_[4];

    static uint64_t splitMix64(uint64_t &x);
};

} // namespace spt

#endif // SPT_COMMON_RNG_H
