/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of the library draw from Rng so that every
 * simulation, test, and bench is reproducible from an explicit seed. The
 * generator is xoshiro256++ (Blackman & Vigna) seeded through splitmix64,
 * which has far better statistical quality than std::minstd and is much
 * faster than std::mt19937_64 while remaining fully portable.
 */

#ifndef SLEEPSCALE_UTIL_RNG_HH
#define SLEEPSCALE_UTIL_RNG_HH

#include <array>
#include <cstdint>

namespace sleepscale {

/**
 * Deterministic xoshiro256++ random number generator.
 *
 * Satisfies the UniformRandomBitGenerator requirements so it can also be
 * plugged into standard-library distributions, although the library uses
 * its explicit members for reproducibility across standard libraries.
 */
class Rng
{
  public:
    using result_type = std::uint64_t; ///< UniformRandomBitGenerator.

    /** Construct from a seed; equal seeds yield identical streams. */
    explicit Rng(std::uint64_t seed = 0x5eed5ca1eULL);

    /** Smallest value next() can return. */
    static constexpr result_type min() { return 0; }
    /** Largest value next() can return. */
    static constexpr result_type max() { return ~0ULL; }

    /** Next raw 64-bit output. */
    result_type next();

    /** UniformRandomBitGenerator interface. */
    result_type operator()() { return next(); }

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). lo must be <= hi. */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). n must be positive. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Exponentially distributed value with the given mean (> 0). */
    double exponential(double mean);

    /** Standard normal via Marsaglia polar method. */
    double normal();

    /** Normal with explicit mean and standard deviation (>= 0). */
    double normal(double mean, double stddev);

    /**
     * Derive an independent child generator.
     *
     * Children produced with distinct stream indices are statistically
     * independent of each other and of the parent, letting one master seed
     * drive many decoupled model components.
     *
     * @param stream Index of the child stream.
     */
    Rng fork(std::uint64_t stream) const;

  private:
    std::array<std::uint64_t, 4> _state;
    /** Cached second output of the polar method, NaN when absent. */
    double _spareNormal;
    bool _haveSpare = false;
};

/**
 * Derive a decorrelated seed from another seed (one splitmix64 step).
 *
 * Use when two components must draw statistically independent streams
 * from one master seed: seeding both with the raw value would put
 * their generators in identical states.
 */
std::uint64_t mixSeed(std::uint64_t seed);

} // namespace sleepscale

#endif // SLEEPSCALE_UTIL_RNG_HH
