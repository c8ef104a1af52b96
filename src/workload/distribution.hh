/**
 * @file
 * Probability distributions for inter-arrival and service times.
 *
 * SleepScale's policy manager consumes *empirical* job logs, so it is
 * distribution-agnostic; the job sources need only the four families
 * fitDistribution() picks for a (mean, Cv) target: deterministic
 * (Cv = 0), gamma (Cv < 1), exponential (Cv = 1, the Section 4
 * idealized model) and balanced-means hyperexponential (Cv > 1).
 * Together they synthesize BigHouse-like workloads matching the paper's
 * Table 5 (mean, Cv) pairs, our stand-in for the BigHouse trace archive.
 * Each family's closed-form cdf() is the oracle its sampler is tested
 * against.
 */

#ifndef SLEEPSCALE_WORKLOAD_DISTRIBUTION_HH
#define SLEEPSCALE_WORKLOAD_DISTRIBUTION_HH

#include <memory>
#include <string>

#include "util/rng.hh"

namespace sleepscale {

/**
 * Abstract positive-valued random distribution.
 *
 * Implementations are immutable; all randomness flows through the Rng
 * passed to sample() so streams stay reproducible and decoupled.
 */
class Distribution
{
  public:
    virtual ~Distribution() = default;

    /** Draw one sample (always >= 0). */
    virtual double sample(Rng &rng) const = 0;

    /** Cumulative distribution function Pr(X <= x). */
    virtual double cdf(double x) const = 0;

    /** Theoretical mean. */
    virtual double mean() const = 0;

    /** Theoretical coefficient of variation (stddev / mean). */
    virtual double cv() const = 0;

    /** Family name for diagnostics, e.g. "exponential". */
    virtual std::string name() const = 0;

    /** Deep copy. */
    virtual std::unique_ptr<Distribution> clone() const = 0;
};

/** Degenerate point mass: every sample equals the mean (Cv = 0). */
class DeterministicDist final : public Distribution
{
  public:
    /** @param value The point mass; fatal() if negative. */
    explicit DeterministicDist(double value);
    double sample(Rng &rng) const override;
    double cdf(double x) const override;
    double mean() const override { return _value; }
    double cv() const override { return 0.0; }
    std::string name() const override { return "deterministic"; }
    std::unique_ptr<Distribution> clone() const override;

  private:
    double _value;
};

/** Exponential distribution (Cv = 1); the paper's idealized model. */
class ExponentialDist final : public Distribution
{
  public:
    /** @param mean Positive mean. */
    explicit ExponentialDist(double mean);
    double sample(Rng &rng) const override;
    double cdf(double x) const override;
    double mean() const override { return _mean; }
    double cv() const override { return 1.0; }
    std::string name() const override { return "exponential"; }
    std::unique_ptr<Distribution> clone() const override;

  private:
    double _mean;
};

/**
 * Gamma distribution parameterized by (mean, Cv); Cv < 1 yields Erlang-like
 * low-variance shapes. Sampling uses Marsaglia & Tsang's method.
 */
class GammaDist final : public Distribution
{
  public:
    /**
     * @param mean Positive mean.
     * @param cv Positive coefficient of variation.
     */
    GammaDist(double mean, double cv);
    double sample(Rng &rng) const override;
    double cdf(double x) const override;
    double mean() const override { return _mean; }
    double cv() const override { return _cv; }
    std::string name() const override { return "gamma"; }
    std::unique_ptr<Distribution> clone() const override;

    /** Shape parameter k = 1 / Cv^2. */
    double shape() const { return _shape; }

  private:
    double _mean;
    double _cv;
    double _shape;
    double _scale;
};

/**
 * Two-phase hyperexponential with balanced means, parameterized by
 * (mean, Cv) for Cv >= 1. This is the standard H2 fit used to reproduce
 * heavy-tailed service processes such as the paper's Mail workload
 * (service Cv = 3.6).
 */
class HyperExponentialDist final : public Distribution
{
  public:
    /**
     * @param mean Positive mean.
     * @param cv Coefficient of variation, >= 1 (GammaDist covers < 1).
     */
    HyperExponentialDist(double mean, double cv);
    double sample(Rng &rng) const override;
    double cdf(double x) const override;
    double mean() const override { return _mean; }
    double cv() const override { return _cv; }
    std::string name() const override { return "hyperexponential"; }
    std::unique_ptr<Distribution> clone() const override;

    /** Probability of drawing from the first (fast) phase. */
    double phaseProbability() const { return _p1; }

  private:
    double _mean;
    double _cv;
    double _p1;
    double _mean1;
    double _mean2;
};

/**
 * Fit a distribution family to a (mean, Cv) target.
 *
 * Chooses deterministic (Cv = 0), gamma (0 < Cv < 1), exponential
 * (Cv = 1 within tolerance), or balanced-means hyperexponential (Cv > 1).
 * The returned distribution matches both moments exactly.
 *
 * @param mean Target mean (> 0).
 * @param cv Target coefficient of variation (>= 0).
 */
std::unique_ptr<Distribution> fitDistribution(double mean, double cv);

} // namespace sleepscale

#endif // SLEEPSCALE_WORKLOAD_DISTRIBUTION_HH
