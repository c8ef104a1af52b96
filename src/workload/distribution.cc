#include "workload/distribution.hh"

#include <cmath>

#include "util/error.hh"

namespace sleepscale {

// ---------------------------------------------------------------- helpers

namespace {

void
requirePositiveMean(double mean, const char *who)
{
    fatalIf(mean <= 0.0, std::string(who) + ": mean must be positive");
}

/**
 * Regularized lower incomplete gamma P(a, x) via the standard series /
 * continued-fraction split (Numerical Recipes style), accurate to ~1e-12
 * over the parameter range the gamma family uses.
 */
double
regularizedGammaP(double a, double x)
{
    if (x <= 0.0)
        return 0.0;
    constexpr int max_iterations = 500;
    constexpr double epsilon = 1e-14;
    const double log_gamma_a = std::lgamma(a);

    if (x < a + 1.0) {
        // Series representation.
        double term = 1.0 / a;
        double sum = term;
        double ap = a;
        for (int n = 0; n < max_iterations; ++n) {
            ap += 1.0;
            term *= x / ap;
            sum += term;
            if (std::abs(term) < std::abs(sum) * epsilon)
                break;
        }
        return sum * std::exp(-x + a * std::log(x) - log_gamma_a);
    }

    // Continued fraction for Q(a, x) = 1 - P(a, x).
    double b = x + 1.0 - a;
    double c = 1e300;
    double d = 1.0 / b;
    double h = d;
    for (int i = 1; i <= max_iterations; ++i) {
        const double an = -static_cast<double>(i) *
                          (static_cast<double>(i) - a);
        b += 2.0;
        d = an * d + b;
        if (std::abs(d) < 1e-300)
            d = 1e-300;
        c = b + an / c;
        if (std::abs(c) < 1e-300)
            c = 1e-300;
        d = 1.0 / d;
        const double delta = d * c;
        h *= delta;
        if (std::abs(delta - 1.0) < epsilon)
            break;
    }
    const double q = std::exp(-x + a * std::log(x) - log_gamma_a) * h;
    return 1.0 - q;
}

} // namespace

// ---------------------------------------------------------- Deterministic

DeterministicDist::DeterministicDist(double value)
    : _value(value)
{
    fatalIf(value < 0.0, "DeterministicDist: value must be >= 0");
}

double
DeterministicDist::sample(Rng &rng) const
{
    (void)rng;
    return _value;
}

double
DeterministicDist::cdf(double x) const
{
    return x >= _value ? 1.0 : 0.0;
}

std::unique_ptr<Distribution>
DeterministicDist::clone() const
{
    return std::make_unique<DeterministicDist>(*this);
}

// ------------------------------------------------------------ Exponential

ExponentialDist::ExponentialDist(double mean)
    : _mean(mean)
{
    requirePositiveMean(mean, "ExponentialDist");
}

double
ExponentialDist::sample(Rng &rng) const
{
    return rng.exponential(_mean);
}

double
ExponentialDist::cdf(double x) const
{
    return x <= 0.0 ? 0.0 : 1.0 - std::exp(-x / _mean);
}

std::unique_ptr<Distribution>
ExponentialDist::clone() const
{
    return std::make_unique<ExponentialDist>(*this);
}

// ------------------------------------------------------------------ Gamma

GammaDist::GammaDist(double mean, double cv)
    : _mean(mean), _cv(cv)
{
    requirePositiveMean(mean, "GammaDist");
    fatalIf(cv <= 0.0, "GammaDist: cv must be positive");
    _shape = 1.0 / (cv * cv);
    _scale = mean / _shape;
}

double
GammaDist::sample(Rng &rng) const
{
    // Marsaglia & Tsang (2000). For shape < 1 boost with U^{1/shape}.
    double shape = _shape;
    double boost = 1.0;
    if (shape < 1.0) {
        double u;
        do {
            u = rng.uniform();
        } while (u <= 0.0);
        boost = std::pow(u, 1.0 / shape);
        shape += 1.0;
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
        double x, v;
        do {
            x = rng.normal();
            v = 1.0 + c * x;
        } while (v <= 0.0);
        v = v * v * v;
        const double u = rng.uniform();
        const double x2 = x * x;
        if (u < 1.0 - 0.0331 * x2 * x2 ||
            std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) {
            return d * v * boost * _scale;
        }
    }
}

double
GammaDist::cdf(double x) const
{
    return x <= 0.0 ? 0.0 : regularizedGammaP(_shape, x / _scale);
}

std::unique_ptr<Distribution>
GammaDist::clone() const
{
    return std::make_unique<GammaDist>(*this);
}

// ------------------------------------------------------- HyperExponential

HyperExponentialDist::HyperExponentialDist(double mean, double cv)
    : _mean(mean), _cv(cv)
{
    requirePositiveMean(mean, "HyperExponentialDist");
    fatalIf(cv < 1.0,
            "HyperExponentialDist: cv must be >= 1 (use gamma below 1)");

    // Balanced-means H2 fit: p1/mu1 = p2/mu2, matching mean and Cv.
    const double c2 = cv * cv;
    _p1 = 0.5 * (1.0 + std::sqrt((c2 - 1.0) / (c2 + 1.0)));
    _mean1 = mean / (2.0 * _p1);
    _mean2 = mean / (2.0 * (1.0 - _p1));
}

double
HyperExponentialDist::sample(Rng &rng) const
{
    const double mean = rng.uniform() < _p1 ? _mean1 : _mean2;
    return rng.exponential(mean);
}

double
HyperExponentialDist::cdf(double x) const
{
    if (x <= 0.0)
        return 0.0;
    return _p1 * (1.0 - std::exp(-x / _mean1)) +
           (1.0 - _p1) * (1.0 - std::exp(-x / _mean2));
}

std::unique_ptr<Distribution>
HyperExponentialDist::clone() const
{
    return std::make_unique<HyperExponentialDist>(*this);
}

// -------------------------------------------------------------------- fit

std::unique_ptr<Distribution>
fitDistribution(double mean, double cv)
{
    fatalIf(mean <= 0.0, "fitDistribution: mean must be positive");
    fatalIf(cv < 0.0, "fitDistribution: cv must be >= 0");

    constexpr double exp_tolerance = 1e-9;
    if (cv == 0.0)
        return std::make_unique<DeterministicDist>(mean);
    if (std::abs(cv - 1.0) < exp_tolerance)
        return std::make_unique<ExponentialDist>(mean);
    if (cv < 1.0)
        return std::make_unique<GammaDist>(mean, cv);
    return std::make_unique<HyperExponentialDist>(mean, cv);
}

} // namespace sleepscale
