/**
 * @file
 * Deterministic random number generation for simulations and optimizers.
 *
 * Every stochastic component in the library takes an explicit 64-bit seed so
 * that benches and tests regenerate identical numbers across runs and
 * platforms. The generator is xoshiro256** seeded through SplitMix64, both
 * public-domain algorithms with well-studied statistical behaviour.
 */

#ifndef AUTOPILOT_UTIL_RNG_H
#define AUTOPILOT_UTIL_RNG_H

#include <array>
#include <cstdint>
#include <vector>

namespace autopilot::util
{

/**
 * SplitMix64 stream, used to expand a single seed into generator state and
 * to derive independent child seeds.
 */
class SplitMix64
{
  public:
    /** @param seed Initial state; any value, including zero, is valid. */
    explicit SplitMix64(std::uint64_t seed) : state(seed) {}

    /** Next 64-bit value in the stream. */
    std::uint64_t next();

  private:
    std::uint64_t state;
};

/**
 * xoshiro256** pseudo-random generator with convenience distributions.
 *
 * Satisfies the essentials of UniformRandomBitGenerator but is used via its
 * own distribution helpers to guarantee cross-platform determinism (the
 * standard distributions are implementation-defined).
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a seed, expanded via SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    /** Raw 64 random bits. */
    result_type operator()() { return next64(); }

    /** Next raw 64-bit sample. */
    std::uint64_t
    next64()
    {
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;

        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);

        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 high bits -> double in [0, 1).
        return (next64() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [lo, hi] (inclusive). */
    int uniformInt(int lo, int hi);

    /** Uniform index in [0, n). @pre n > 0. */
    std::size_t index(std::size_t n);

    /** Standard normal sample (Box-Muller, deterministic). */
    double normal();

    /** Normal sample with given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p) { return uniform() < p; }

    /**
     * Derive an independent child generator.
     *
     * Two children forked with different tags from the same parent state
     * produce uncorrelated streams; useful for per-episode seeding.
     */
    Rng fork(std::uint64_t tag);

    /** Fisher-Yates shuffle of a vector, using this stream. */
    template <typename T>
    void
    shuffle(std::vector<T> &values)
    {
        if (values.empty())
            return;
        for (std::size_t i = values.size() - 1; i > 0; --i) {
            std::size_t j = index(i + 1);
            std::swap(values[i], values[j]);
        }
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state;
    bool hasSpareNormal = false;
    double spareNormal = 0.0;
};

} // namespace autopilot::util

#endif // AUTOPILOT_UTIL_RNG_H
