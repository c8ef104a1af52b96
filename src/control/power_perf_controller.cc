#include "control/power_perf_controller.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hh"

namespace sleepscale {

namespace {

/** Design utilization cap the stability floor enforces: below the
 * paper's f >= rho + 0.01 hard wall, above any sane QoS operating
 * point, so the floor only engages against gross underprovisioning. */
constexpr double stabilityCap = 0.95;

/** Two grid frequencies closer than this are the same P-state. */
constexpr double gridEpsilon = 1e-9;

} // namespace

PowerPerfController::PowerPerfController(const PlatformModel &platform,
                                         ServiceScaling scaling,
                                         const PolicySpace &space,
                                         const ControllerConfig &config)
    : _scaling(scaling), _pole(config.pole)
{
    fatalIf(space.frequencies.empty(),
            "PowerPerfController: empty frequency grid");
    fatalIf(space.plans.empty(),
            "PowerPerfController: no candidate sleep plans");
    config.validate();

    _grid = space.frequencies;
    std::sort(_grid.begin(), _grid.end());
    _grid.erase(std::unique(_grid.begin(), _grid.end(),
                            [](double a, double b) {
                                return std::abs(a - b) < gridEpsilon;
                            }),
                _grid.end());

    _speedups.reserve(_grid.size());
    for (double f : _grid)
        _speedups.push_back(_scaling.factor(_grid.front()) /
                            _scaling.factor(f));

    // Sort candidate plans by how long their deepest state takes to
    // wake; translate() walks this order to find the deepest plan an
    // allowance admits. Stable sort keeps the space's declaration
    // order authoritative among equal-latency plans.
    std::vector<std::pair<double, SleepPlan>> by_wake;
    by_wake.reserve(space.plans.size());
    for (const SleepPlan &plan : space.plans)
        by_wake.emplace_back(platform.wakeLatency(plan.deepest()), plan);
    std::stable_sort(by_wake.begin(), by_wake.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    for (auto &[latency, plan] : by_wake) {
        _wakeLatencies.push_back(latency);
        _plansByWake.push_back(std::move(plan));
    }

    _uMin = 1.0;
    _uMax = _speedups.back();
    _u = _uMax; // Start fast; the integrator relaxes toward cheap.
}

double
PowerPerfController::speedupOf(double frequency) const
{
    const double f = std::clamp(frequency, _grid.front(), _grid.back());
    return _scaling.factor(_grid.front()) / _scaling.factor(f);
}

bool
PowerPerfController::saturatedHigh() const
{
    return _u >= _uMax - gridEpsilon;
}

void
PowerPerfController::step(double error, double base_speed)
{
    fatalIf(!(base_speed > 0.0),
            "PowerPerfController::step: base speed must be > 0");
    _u += (1.0 - _pole) * error / base_speed;
    _u = std::clamp(_u, _uMin, _uMax);
}

double
PowerPerfController::frequencyOf(double u) const
{
    if (u <= _speedups.front())
        return _grid.front();
    if (u >= _speedups.back())
        return _grid.back();
    // Find the grid segment bracketing the requested speedup and
    // interpolate linearly in frequency.
    const auto upper =
        std::upper_bound(_speedups.begin(), _speedups.end(), u);
    const std::size_t hi =
        static_cast<std::size_t>(upper - _speedups.begin());
    const std::size_t lo = hi - 1;
    const double span = _speedups[hi] - _speedups[lo];
    if (span < gridEpsilon)
        return _grid[lo];
    const double frac = (u - _speedups[lo]) / span;
    return _grid[lo] + frac * (_grid[hi] - _grid[lo]);
}

double
PowerPerfController::stabilityFloor(double load) const
{
    const double rho = std::clamp(load, 0.0, 1.0);
    if (rho <= 0.0)
        return _grid.front();
    // Utilization at f is rho * factor(f); keep it under the cap. For
    // a memory-bound law frequency cannot shed load, so the floor is
    // moot and the QoS feedback owns the response.
    if (_scaling.exponent < gridEpsilon)
        return _grid.front();
    const double f = std::pow(rho / stabilityCap,
                              1.0 / _scaling.exponent);
    return std::clamp(f, _grid.front(), _grid.back());
}

const SleepPlan &
PowerPerfController::planFor(double wake_allowance) const
{
    // Deepest candidate whose wake latency fits; the shallowest plan
    // (index 0 after the sort) is always admissible as the fallback.
    std::size_t pick = 0;
    for (std::size_t i = 0; i < _wakeLatencies.size(); ++i) {
        if (_wakeLatencies[i] <= wake_allowance)
            pick = i;
    }
    return _plansByWake[pick];
}

Policy
PowerPerfController::translate(double load_estimate, double wake_allowance)
{
    double f_target = frequencyOf(_u);
    f_target = std::max(f_target, stabilityFloor(load_estimate));

    // Error-diffusion between the two adjacent grid frequencies: carry
    // the fractional part across epochs so the average applied
    // frequency tracks the continuous target.
    double f_pick;
    if (f_target <= _grid.front() + gridEpsilon) {
        f_pick = _grid.front();
        _accumulator = 0.0; // Anti-windup at the grid edge.
    } else if (f_target >= _grid.back() - gridEpsilon) {
        f_pick = _grid.back();
        _accumulator = 0.0;
    } else {
        const auto upper =
            std::upper_bound(_grid.begin(), _grid.end(), f_target);
        const std::size_t hi =
            static_cast<std::size_t>(upper - _grid.begin());
        const std::size_t lo = hi - 1;
        const double frac =
            (f_target - _grid[lo]) / (_grid[hi] - _grid[lo]);
        _accumulator += frac;
        if (_accumulator >= 1.0) {
            _accumulator -= 1.0;
            f_pick = _grid[hi];
        } else {
            f_pick = _grid[lo];
        }
    }

    Policy policy;
    policy.frequency = f_pick;
    policy.plan = planFor(wake_allowance);
    return policy;
}

void
PowerPerfController::reset()
{
    _u = _uMax;
    _accumulator = 0.0;
}

} // namespace sleepscale
