/**
 * @file
 * Minute-granularity utilization predictors (paper Section 5.2.2).
 *
 * Predictors observe the measured offered load of each completed minute
 * and forecast the next minute. The runtime queries them at epoch
 * boundaries (the prediction for the first minute of the upcoming epoch
 * parameterizes the whole epoch, per Section 5.2.3).
 */

#ifndef SLEEPSCALE_CORE_PREDICTOR_HH
#define SLEEPSCALE_CORE_PREDICTOR_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/registry.hh"

namespace sleepscale {

/** Interface shared by all utilization predictors. */
class UtilizationPredictor
{
  public:
    virtual ~UtilizationPredictor() = default;

    /**
     * Forecast the utilization of minute `minute` (the minute about to
     * run). Only the offline genie uses the index; causal predictors
     * forecast from their observation history.
     */
    virtual double predict(std::size_t minute) = 0;

    /**
     * Record the measured utilization of minute `minute` once it has
     * completed. Values are clamped to [0, 1] by callers.
     */
    virtual void observe(std::size_t minute, double utilization) = 0;

    /** Predictor name for reports ("NP", "LMS", "LC", "Offline"). */
    virtual std::string name() const = 0;
};

/**
 * Naive-previous: forecasts the most recently observed minute. Tracks
 * abrupt changes immediately but never smooths noise.
 */
class NaivePreviousPredictor final : public UtilizationPredictor
{
  public:
    /** @param initial Forecast before any observation exists. */
    explicit NaivePreviousPredictor(double initial = 0.5);
    double predict(std::size_t minute) override;
    void observe(std::size_t minute, double utilization) override;
    std::string name() const override { return "NP"; }

  private:
    double _last;
};

/**
 * The normalized-LMS core the LMS and LC predictors share: p
 * newest-first taps over a newest-first ring of the last p
 * observations. Each call names the active tap count: LMS passes p, LC
 * its adaptive count.
 */
struct NlmsFilter
{
    /**
     * @param taps Tap count p.
     * @param initial_forecast Forecast before observations exist.
     * @param step_size NLMS adaptation step size in (0, 2).
     */
    NlmsFilter(std::size_t taps, double initial_forecast, double step_size);

    /** Forecast from the first `taps` taps, clamped to [0, 1]: the plain
     * average of the history until `taps` observations exist (a
     * weighted sum over missing samples would be biased low), and
     * `initial` before any. */
    double forecast(std::size_t taps) const;

    /** NLMS update of the first `taps` weights for a prediction error. */
    void adapt(double error, std::size_t taps);

    /** Push an observation (clamped to [0, 1]), keeping the last p. */
    void push(double utilization);

    double initial;              ///< Forecast before observations.
    double step;                 ///< NLMS step size.
    std::vector<double> weights; ///< Newest-first taps (p of them).
    std::vector<double> history; ///< Newest-first observations.
};

/**
 * Least-mean-square adaptive filter (paper's LMS-only predictor): a
 * p-tap linear predictor over the last p minutes whose weights adapt by
 * normalized LMS. Smooths noise well but lags abrupt changes.
 */
class LmsPredictor final : public UtilizationPredictor
{
  public:
    /**
     * @param history Tap count p (the paper uses p = 10).
     * @param initial Forecast before observations exist.
     * @param step NLMS adaptation step size in (0, 2).
     */
    explicit LmsPredictor(std::size_t history = 10, double initial = 0.5,
                          double step = 0.5);
    double predict(std::size_t minute) override;
    void observe(std::size_t minute, double utilization) override;
    std::string name() const override { return "LMS"; }

    /** Current tap count (fixed at `history` for plain LMS). */
    std::size_t taps() const { return _filter.weights.size(); }

  private:
    NlmsFilter _filter;
};

/**
 * LMS with CUSUM change-point detection (paper Algorithm 2): plain LMS
 * while the workload is stationary; when the cumulative prediction-error
 * statistic crosses an adaptive threshold the tap count collapses to one
 * (dropping the smoothing to track the change), then regrows toward the
 * maximum as stationarity returns. On every resize the weights are
 * re-spread uniformly, preserving their total gain, exactly as in the
 * paper's pseudo-code.
 */
class LmsCusumPredictor final : public UtilizationPredictor
{
  public:
    /**
     * @param history Maximum tap count (paper: p = 10).
     * @param initial Forecast before observations exist.
     * @param step NLMS adaptation step size.
     */
    explicit LmsCusumPredictor(std::size_t history = 10,
                               double initial = 0.5, double step = 0.5);
    double predict(std::size_t minute) override;
    void observe(std::size_t minute, double utilization) override;
    std::string name() const override { return "LC"; }

    /** Current (adaptive) tap count. */
    std::size_t taps() const { return _currentTaps; }

    /** Number of change points detected so far. */
    std::size_t changesDetected() const { return _changes; }

  private:
    NlmsFilter _filter;
    std::size_t _currentTaps;

    // One-sided CUSUM on absolute prediction error with an EWMA-adaptive
    // drift and threshold.
    double _errorEwma = 0.0;
    double _errorVarEwma = 0.0;
    double _cusum = 0.0;
    std::size_t _observations = 0;
    std::size_t _changes = 0;

    void resizeTaps(std::size_t taps);
};

/**
 * Offline genie: returns the true trace value for the requested minute
 * (non-causal upper bound on every causal predictor).
 */
class OfflinePredictor final : public UtilizationPredictor
{
  public:
    /** @param trace True per-minute utilization values. */
    explicit OfflinePredictor(std::vector<double> trace);
    double predict(std::size_t minute) override;
    void observe(std::size_t minute, double utilization) override;
    std::string name() const override { return "Offline"; }

  private:
    std::vector<double> _trace;
};

/** Inputs available to a predictor factory. */
struct PredictorContext
{
    /** Tap/history length for the adaptive predictors. */
    std::size_t history = 10;

    /** True per-minute trace (only the offline genie reads it). */
    std::vector<double> trace;
};

/** Factory signature stored in the predictor registry. */
using PredictorFactory = std::function<std::unique_ptr<UtilizationPredictor>(
    const PredictorContext &)>;

/**
 * The predictor registry. Ships with "NP", "LMS", "LC", and "Offline";
 * extensions register additional factories under new names.
 */
Registry<PredictorFactory> &predictorRegistry();

/** Construct a registered predictor by name; fatal() on unknown names. */
std::unique_ptr<UtilizationPredictor>
makePredictor(const std::string &name, std::size_t history = 10,
              const std::vector<double> &trace = {});

} // namespace sleepscale

#endif // SLEEPSCALE_CORE_PREDICTOR_HH
