#include "core/eval_engine.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "util/error.hh"

namespace sleepscale {

PolicyEvalEngine::PolicyEvalEngine(const PlatformModel &platform,
                                   ServiceScaling scaling,
                                   PolicySpace space, QosConstraint qos,
                                   EvalEngineOptions options)
    : _platform(platform), _scaling(scaling), _space(std::move(space)),
      _qos(qos), _options(options)
{
    fatalIf(_space.plans.empty() || _space.frequencies.empty(),
            "PolicyEvalEngine: empty policy space");
    for (double f : _space.frequencies) {
        fatalIf(f <= 0.0 || f > 1.0,
                "PolicyEvalEngine: frequencies must be in (0, 1]");
    }
    if (_options.pruned) {
        for (std::size_t i = 1; i < _space.frequencies.size(); ++i) {
            fatalIf(_space.frequencies[i] <= _space.frequencies[i - 1],
                    "PolicyEvalEngine: pruned search needs a strictly "
                    "increasing frequency grid");
        }
    }

    // Materialize the whole (plan, frequency) cross product once; the
    // space is static, so every subsequent selection reuses it.
    _materialized.reserve(_space.size());
    for (const SleepPlan &plan : _space.plans) {
        for (double f : _space.frequencies)
            _materialized.emplace_back(plan, _platform, f);
    }

    if (_options.threads != 1)
        _pool = std::make_unique<ThreadPool>(_options.threads);
    const std::size_t lanes = _pool ? _pool->size() : 1;
    _tails.assign(lanes * replayWidth, SimStats{}.responseHistogram);
    _outcomes.resize(_space.size());
}

const MaterializedPlan &
PolicyEvalEngine::materialized(std::size_t plan_idx,
                               std::size_t freq_idx) const
{
    fatalIf(plan_idx >= _space.plans.size() ||
                freq_idx >= _space.frequencies.size(),
            "PolicyEvalEngine::materialized: index out of range");
    return _materialized[plan_idx * _space.frequencies.size() + freq_idx];
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

void
PolicyEvalEngine::evaluateCandidates(const PreparedLog &log)
{
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
}

PolicyDecision
PolicyEvalEngine::reduce() const
{
    // Scan outcomes in candidate-index order — the same plan-major,
    // grid-order walk the serial nested loop performs — with strict
    // comparisons, so any fan-out width and the pruned mode agree with
    // exhaustive serial search down to tie-breaking.
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
            "PolicyEvalEngine::selectFromLog: no stable candidate; "
            "offered load too high for the frequency grid");

    PolicyDecision decision = best.feasible ? best : fallback;
    const std::size_t winner = best.feasible ? best_index : fallback_index;
    decision.policy = Policy{_space.frequencies[winner % freqs],
                             _space.plans[winner / freqs]};
    decision.evaluated = evaluated;
    return decision;
}

PolicyDecision
PolicyEvalEngine::exhaustiveSearch(const PreparedLog &log, double f_floor)
{
    const std::size_t freqs = _space.frequencies.size();
    _candidates.clear();
    for (std::size_t index = 0; index < _outcomes.size(); ++index) {
        if (_space.frequencies[index % freqs] >= f_floor &&
            !_outcomes[index].evaluated)
            _candidates.push_back(static_cast<std::uint32_t>(index));
    }
    evaluateCandidates(log);
    return reduce();
}

PolicyDecision
PolicyEvalEngine::prunedSearch(const PreparedLog &log, double f_floor)
{
    const std::size_t freqs = _space.frequencies.size();
    const std::size_t plans = _space.plans.size();

    // The frequency grid is ascending (validated at construction), so
    // the stable set is a suffix starting at first_stable.
    std::size_t first_stable = freqs;
    for (std::size_t k = 0; k < freqs; ++k) {
        if (_space.frequencies[k] >= f_floor) {
            first_stable = k;
            break;
        }
    }
    fatalIf(first_stable == freqs,
            "PolicyEvalEngine::selectFromLog: no stable candidate; "
            "offered load too high for the frequency grid");

    // Phase A: per plan, probe the top frequency, then binary-search
    // the first feasible one (the QoS metric is assumed nonincreasing in
    // f within a plan). A plan's probes depend on each other but the
    // plans' searches do not, so they run in lockstep: each round packs
    // one probe per unfinished plan into blocks. hi == freqs marks a
    // plan whose top frequency is not probed yet; when a plan finishes,
    // lo is its first feasible frequency, or freqs if there is none.
    std::vector<std::size_t> lo(plans, first_stable);
    std::vector<std::size_t> hi(plans, freqs);
    for (;;) {
        _candidates.clear();
        for (std::size_t p = 0; p < plans; ++p) {
            if (lo[p] >= hi[p])
                continue;
            const std::size_t k =
                hi[p] == freqs ? freqs - 1 : lo[p] + (hi[p] - lo[p]) / 2;
            _candidates.push_back(static_cast<std::uint32_t>(p * freqs + k));
        }
        if (_candidates.empty())
            break;
        evaluateCandidates(log);
        for (const std::uint32_t index : _candidates) {
            const std::size_t p = index / freqs;
            const std::size_t k = index % freqs;
            if (_outcomes[index].metric <= _qos.budget())
                hi[p] = k;
            else
                lo[p] = k + 1;
        }
    }

    // Phase B: characterize every feasible candidate (the suffix above
    // each plan's boundary) for the power reduction.
    _candidates.clear();
    bool any_feasible = false;
    for (std::size_t p = 0; p < plans; ++p) {
        if (lo[p] == freqs)
            continue;
        any_feasible = true;
        for (std::size_t k = lo[p]; k < freqs; ++k) {
            const std::size_t index = p * freqs + k;
            if (!_outcomes[index].evaluated)
                _candidates.push_back(
                    static_cast<std::uint32_t>(index));
        }
    }

    if (!any_feasible) {
        // Best-effort fallback must match exhaustive search exactly, so
        // characterize the whole stable set.
        return exhaustiveSearch(log, f_floor);
    }
    evaluateCandidates(log);
    return reduce();
}

PolicyDecision
PolicyEvalEngine::selectFromPrepared(const PreparedLog &log)
{
    const double rho = log.offeredLoad();
    const double f_floor = minStableFrequency(rho);

    for (Outcome &outcome : _outcomes)
        outcome = Outcome{};

    const PolicyDecision decision = _options.pruned
                                        ? prunedSearch(log, f_floor)
                                        : exhaustiveSearch(log, f_floor);
    _lifetimeEvaluations += decision.evaluated;
    return decision;
}

PolicyDecision
PolicyEvalEngine::selectFromLog(const std::vector<Job> &log)
{
    return selectFromPrepared(PreparedLog::fromJobs(log));
}

} // namespace sleepscale
