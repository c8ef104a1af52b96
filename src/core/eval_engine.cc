#include "core/eval_engine.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "analytic/mm1_sleep.hh"
#include "util/error.hh"

namespace sleepscale {

PolicyEvalEngine::PolicyEvalEngine(const PlatformModel &platform,
                                   ServiceScaling scaling,
                                   PolicySpace space, QosConstraint qos,
                                   std::size_t threads)
    : _platform(platform), _scaling(scaling), _space(std::move(space)),
      _qos(qos)
{
    fatalIf(_space.plans.empty() || _space.frequencies.empty(),
            "PolicyEvalEngine: empty policy space");
    for (double f : _space.frequencies) {
        fatalIf(!(f > 0.0 && f <= 1.0),
                "PolicyEvalEngine: frequencies must be in (0, 1]");
    }

    // Materialize the whole (plan, frequency) cross product once; the
    // space is static, so every subsequent selection reuses it.
    _materialized.reserve(_space.size());
    for (const SleepPlan &plan : _space.plans) {
        for (double f : _space.frequencies)
            _materialized.emplace_back(plan, _platform, f);
    }

    if (threads != 1)
        _pool = std::make_unique<ThreadPool>(threads);
    const std::size_t lanes = _pool ? _pool->size() : 1;
    _tails.resize(lanes * replayWidth);
    _outcomes.resize(_space.size());
    _candidates.reserve(_space.size());
}

double
PolicyEvalEngine::minStableFrequency(double rho) const
{
    // Stability needs µ f^a > λ, i.e. f > ρ^{1/a}; keep the paper's
    // +0.01 margin. Memory-bound work (a = 0) is stable at any f as long
    // as ρ < 1.
    const double margin = std::min(rho + 0.01, 0.999);
    if (_scaling.exponent == 0.0)
        return rho < 1.0 ? 0.0 : 1.0;
    return std::pow(margin, 1.0 / _scaling.exponent);
}

void
PolicyEvalEngine::evaluateBlock(std::span<const std::uint32_t> block,
                                const PreparedLog &log, std::size_t lane)
{
    const std::size_t freqs = _space.frequencies.size();
    const std::size_t width = block.size();
    std::array<ReplayCandidate, replayWidth> lanes;
    for (std::size_t j = 0; j < width; ++j) {
        const double f = _space.frequencies[block[j] % freqs];
        lanes[j] = ReplayCandidate::of(_materialized[block[j]], _platform,
                                       _scaling, f);
    }
    const bool tail = _qos.metric() == QosMetric::TailResponse;
    const std::span<QuantileHistogram> tails =
        tail ? std::span(_tails).subspan(lane * replayWidth, width)
             : std::span<QuantileHistogram>{};
    std::array<ReplayOutcome, replayWidth> replayed;
    replayBlock(log, std::span(lanes).first(width),
                std::span(replayed).first(width), tails);

    for (std::size_t j = 0; j < width; ++j) {
        Outcome &outcome = _outcomes[block[j]];
        outcome.power = replayed[j].avgPower;
        outcome.metric = _qos.measuredValue(
            replayed[j].meanResponse, _tails[lane * replayWidth + j]);
        outcome.evaluated = true;
    }
}

PolicyDecision
PolicyEvalEngine::reduce() const
{
    // Scan outcomes in candidate-index order — the same plan-major,
    // grid-order walk the serial nested loop performs — with strict
    // comparisons, so any fan-out width agrees with the serial search
    // down to tie-breaking.
    const std::size_t freqs = _space.frequencies.size();
    PolicyDecision best;
    PolicyDecision fallback; // Best-effort: minimum metric value.
    double best_power = std::numeric_limits<double>::infinity();
    double fallback_metric = std::numeric_limits<double>::infinity();
    std::size_t best_index = 0;
    std::size_t fallback_index = 0;
    std::uint64_t evaluated = 0;

    for (std::size_t index = 0; index < _outcomes.size(); ++index) {
        const Outcome &outcome = _outcomes[index];
        if (!outcome.evaluated)
            continue;
        ++evaluated;
        if (outcome.metric <= _qos.budget() &&
            outcome.power < best_power) {
            best_power = outcome.power;
            best.feasible = true;
            best.predictedPower = outcome.power;
            best.predictedMetric = outcome.metric;
            best_index = index;
        }
        if (outcome.metric < fallback_metric) {
            fallback_metric = outcome.metric;
            fallback.predictedPower = outcome.power;
            fallback.predictedMetric = outcome.metric;
            fallback_index = index;
        }
    }

    fatalIf(evaluated == 0,
            "PolicyEvalEngine: no stable candidate; offered load too "
            "high for the frequency grid");

    PolicyDecision decision = best.feasible ? best : fallback;
    const std::size_t winner = best.feasible ? best_index : fallback_index;
    decision.policy = Policy{_space.frequencies[winner % freqs],
                             _space.plans[winner / freqs]};
    decision.evaluated = evaluated;
    return decision;
}

PolicyDecision
PolicyEvalEngine::selectFromLog(const std::vector<Job> &jobs)
{
    return selectFromLog(PreparedLog::fromJobs(jobs));
}

PolicyDecision
PolicyEvalEngine::selectFromLog(const PreparedLog &log)
{
    const double f_floor = minStableFrequency(log.offeredLoad());
    const std::size_t freqs = _space.frequencies.size();
    _candidates.clear();
    for (std::size_t index = 0; index < _outcomes.size(); ++index) {
        _outcomes[index] = Outcome{};
        if (_space.frequencies[index % freqs] >= f_floor)
            _candidates.push_back(static_cast<std::uint32_t>(index));
    }

    // Consecutive candidates share a block; blocks, not candidates, fan
    // out across the pool.
    const std::size_t count = _candidates.size();
    const std::size_t blocks = (count + replayWidth - 1) / replayWidth;
    auto evaluate = [&](std::size_t b, std::size_t lane) {
        const std::size_t first = b * replayWidth;
        evaluateBlock(std::span(_candidates)
                          .subspan(first, std::min(replayWidth,
                                                   count - first)),
                      log, lane);
    };
    if (_pool)
        _pool->parallelFor(blocks, evaluate);
    else
        for (std::size_t b = 0; b < blocks; ++b)
            evaluate(b, 0);

    const PolicyDecision decision = reduce();
    _lifetimeEvaluations += decision.evaluated;
    return decision;
}

PolicyDecision
PolicyEvalEngine::selectAnalytic(double lambda, double mu)
{
    fatalIf(!(lambda > 0.0) || !(mu > 0.0),
            "PolicyEvalEngine::selectAnalytic: rates must be positive");
    const MM1SleepModel model(_platform, _scaling);
    const double f_floor = minStableFrequency(lambda / mu);
    const std::size_t freqs = _space.frequencies.size();
    for (std::size_t index = 0; index < _outcomes.size(); ++index) {
        Outcome &outcome = _outcomes[index];
        outcome = Outcome{};
        const double f = _space.frequencies[index % freqs];
        if (f < f_floor)
            continue;
        const Policy candidate{f, _space.plans[index / freqs]};
        outcome.power = model.meanPower(candidate, lambda, mu);
        outcome.metric = _qos.analyticValue(model, candidate, lambda, mu);
        outcome.evaluated = true;
    }
    return reduce();
}

} // namespace sleepscale
