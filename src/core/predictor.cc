#include "core/predictor.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hh"

namespace sleepscale {

// ---------------------------------------------------------- NaivePrevious

NaivePreviousPredictor::NaivePreviousPredictor(double initial)
    : _last(initial)
{
    fatalIf(initial < 0.0 || initial > 1.0,
            "NaivePreviousPredictor: initial must be in [0, 1]");
}

double
NaivePreviousPredictor::predict(std::size_t minute)
{
    (void)minute;
    return _last;
}

void
NaivePreviousPredictor::observe(std::size_t minute, double utilization)
{
    (void)minute;
    _last = std::clamp(utilization, 0.0, 1.0);
}

// ------------------------------------------------------------------- NLMS

NlmsFilter::NlmsFilter(std::size_t taps, double initial_forecast,
                       double step_size)
    : initial(initial_forecast), step(step_size)
{
    fatalIf(taps == 0, "NlmsFilter: tap count must be positive");
    fatalIf(!(step > 0.0 && step < 2.0),
            "NlmsFilter: NLMS step must be in (0, 2)");
    weights.assign(taps, 1.0 / static_cast<double>(taps));
}

double
NlmsFilter::forecast(std::size_t taps) const
{
    if (history.empty())
        return initial;
    if (history.size() < taps) {
        double sum = 0.0;
        for (double h : history)
            sum += h;
        return std::clamp(sum / static_cast<double>(history.size()), 0.0,
                          1.0);
    }
    double estimate = 0.0;
    for (std::size_t i = 0; i < taps; ++i)
        estimate += weights[i] * history[i];
    // The paper's Algorithm 2 clamps the forecast at 1; negative
    // transients are clamped symmetrically.
    return std::clamp(estimate, 0.0, 1.0);
}

void
NlmsFilter::adapt(double error, std::size_t taps)
{
    // Normalized LMS: v <- v + step * e * x / (||x||^2 + eps); the
    // normalization keeps adaptation stable for any input scale.
    const std::size_t active = std::min(taps, history.size());
    double norm = 1e-6;
    for (std::size_t i = 0; i < active; ++i)
        norm += history[i] * history[i];
    for (std::size_t i = 0; i < active; ++i)
        weights[i] += step * error * history[i] / norm;
}

void
NlmsFilter::push(double utilization)
{
    history.insert(history.begin(), std::clamp(utilization, 0.0, 1.0));
    if (history.size() > weights.size())
        history.pop_back();
}

// -------------------------------------------------------------------- LMS

LmsPredictor::LmsPredictor(std::size_t history, double initial, double step)
    : _filter(history, initial, step)
{
}

double
LmsPredictor::predict(std::size_t minute)
{
    (void)minute;
    return _filter.forecast(taps());
}

void
LmsPredictor::observe(std::size_t minute, double utilization)
{
    (void)minute;
    const double error =
        std::clamp(utilization, 0.0, 1.0) - _filter.forecast(taps());
    _filter.adapt(error, taps());
    _filter.push(utilization);
}

// -------------------------------------------------------------- LMS+CUSUM

LmsCusumPredictor::LmsCusumPredictor(std::size_t history, double initial,
                                     double step)
    : _filter(history, initial, step), _currentTaps(history)
{
}

void
LmsCusumPredictor::resizeTaps(std::size_t taps)
{
    // Algorithm 2 lines 10 and 12: redistribute the accumulated gain
    // sum(v) uniformly over the new tap count.
    std::vector<double> &weights = _filter.weights;
    const double gain = std::accumulate(
        weights.begin(),
        weights.begin() + static_cast<std::ptrdiff_t>(_currentTaps), 0.0);
    _currentTaps = taps;
    weights.assign(weights.size(), 0.0);
    for (std::size_t i = 0; i < taps; ++i)
        weights[i] = gain / static_cast<double>(taps);
}

double
LmsCusumPredictor::predict(std::size_t minute)
{
    (void)minute;
    return _filter.forecast(_currentTaps);
}

void
LmsCusumPredictor::observe(std::size_t minute, double utilization)
{
    (void)minute;
    const double actual = std::clamp(utilization, 0.0, 1.0);
    const double error = actual - _filter.forecast(_currentTaps);
    const double abs_error = std::abs(error);

    // NLMS update over the active taps (Algorithm 2 line 7).
    _filter.adapt(error, _currentTaps);

    // One-sided CUSUM on |error| with EWMA-adaptive drift/threshold
    // (Algorithm 2 lines 8-13; the paper leaves the test parameters
    // open). The drift and threshold are derived from the error
    // statistics *before* absorbing the current error — otherwise a
    // genuine change point inflates its own detection threshold.
    ++_observations;
    const double error_std = std::sqrt(_errorVarEwma);
    const double drift = _errorEwma + 0.5 * error_std;
    const double threshold = 4.0 * error_std + 0.02;
    _cusum = std::max(0.0, _cusum + abs_error - drift);

    const bool warmed_up = _observations > 3;
    if (warmed_up && _cusum > threshold) {
        resizeTaps(1);            // Track: drop all smoothing.
        _filter.history.clear();  // The old regime's samples are invalid.
        _cusum = 0.0;
        ++_changes;
    } else if (_currentTaps < _filter.weights.size()) {
        resizeTaps(_currentTaps + 1); // Re-grow toward stationarity.
    }

    constexpr double beta = 0.9;
    const double deviation = abs_error - _errorEwma;
    _errorEwma = beta * _errorEwma + (1.0 - beta) * abs_error;
    _errorVarEwma =
        beta * _errorVarEwma + (1.0 - beta) * deviation * deviation;

    _filter.push(actual);
}

// ---------------------------------------------------------------- Offline

OfflinePredictor::OfflinePredictor(std::vector<double> trace)
    : _trace(std::move(trace))
{
    fatalIf(_trace.empty(), "OfflinePredictor: empty trace");
}

double
OfflinePredictor::predict(std::size_t minute)
{
    fatalIf(minute >= _trace.size(),
            "OfflinePredictor: minute beyond the trace");
    return _trace[minute];
}

void
OfflinePredictor::observe(std::size_t minute, double utilization)
{
    (void)minute;
    (void)utilization;
}

// ---------------------------------------------------------------- factory

Registry<PredictorFactory> &
predictorRegistry()
{
    static Registry<PredictorFactory> registry = [] {
        Registry<PredictorFactory> r("predictor");
        r.add("NP", [](const PredictorContext &) {
            return std::make_unique<NaivePreviousPredictor>();
        });
        r.add("LMS", [](const PredictorContext &ctx) {
            return std::make_unique<LmsPredictor>(ctx.history);
        });
        r.add("LC", [](const PredictorContext &ctx) {
            return std::make_unique<LmsCusumPredictor>(ctx.history);
        });
        r.add("Offline", [](const PredictorContext &ctx) {
            fatalIf(ctx.trace.empty(),
                    "predictor 'Offline' needs a trace");
            return std::make_unique<OfflinePredictor>(ctx.trace);
        });
        return r;
    }();
    return registry;
}

std::unique_ptr<UtilizationPredictor>
makePredictor(const std::string &name, std::size_t history,
              const std::vector<double> &trace)
{
    PredictorContext ctx;
    ctx.history = history;
    ctx.trace = trace;
    return predictorRegistry().get(name)(ctx);
}

} // namespace sleepscale
