#include "analytic/offline_opt.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "core/policy_space.hh"
#include "util/error.hh"

namespace sleepscale {

namespace {

constexpr double kTimeTolerance = 1e-9;

/** Maximum bracket-refinement passes of solve(). The seed grid is a
 * calibrated guess, so several halvings may be needed; pass cost grows
 * geometrically with refinement, keeping the total near the final
 * pass's cost. */
constexpr int kMaxRefinements = 16;

/** Frontier size above which the FPTAS starts merging almost-dominated
 * states for debt (see fptasPass); below it the frontier is exact for
 * the grid, preserving strict nested-grid monotonicity on the small
 * instances the property tests sweep. */
constexpr std::size_t kSoftFrontier = 256;

/** Cumulative cap-coarsening budget of one FPTAS pass; past it the
 * pass aborts (when allowed) instead of churning the frontier cap on
 * every remaining job. */
constexpr std::size_t kMaxCoarsenings = 8;

} // namespace

OfflineOptInstance
OfflineOptInstance::fromJobs(std::vector<Job> jobs, double horizon)
{
    fatalIf(!(horizon >= 0.0) || !std::isfinite(horizon),
            "OfflineOptInstance: horizon must be finite and non-negative");
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        fatalIf(!(jobs[j].arrival >= 0.0) || !std::isfinite(jobs[j].arrival),
                "OfflineOptInstance: non-finite or negative arrival at "
                "job " + std::to_string(j));
        fatalIf(j > 0 && jobs[j].arrival < jobs[j - 1].arrival,
                "OfflineOptInstance: arrivals must be non-decreasing "
                "(job " + std::to_string(j) + ")");
        fatalIf(!(jobs[j].size >= 0.0) || !std::isfinite(jobs[j].size),
                "OfflineOptInstance: non-finite or negative size at job " +
                    std::to_string(j));
    }
    fatalIf(!jobs.empty() && horizon < jobs.back().arrival,
            "OfflineOptInstance: horizon precedes the last arrival");
    OfflineOptInstance instance;
    instance.jobs = std::move(jobs);
    instance.horizon = horizon;
    return instance;
}

OfflineOptimal::OfflineOptimal(const PlatformModel &platform,
                               ServiceScaling scaling,
                               OfflineOptOptions options)
    : _platform(platform), _scaling(scaling), _options(std::move(options))
{
    fatalIf(!(_options.epsilon > 0.0) || !std::isfinite(_options.epsilon),
            "OfflineOptimal: epsilon must be positive and finite");
    fatalIf(_options.maxStates < 2,
            "OfflineOptimal: maxStates must be >= 2");
    _freqs = _options.frequencies.empty()
                 ? PolicySpace::standard().frequencies
                 : _options.frequencies;
    std::sort(_freqs.begin(), _freqs.end());
    _freqs.erase(std::unique(_freqs.begin(), _freqs.end()), _freqs.end());
    fatalIf(_freqs.empty(), "OfflineOptimal: empty frequency grid");
    for (double f : _freqs)
        fatalIf(!(f > 0.0) || f > 1.0,
                "OfflineOptimal: frequencies must be in (0, 1]");

    _activePower.reserve(_freqs.size());
    for (double f : _freqs)
        _activePower.push_back(_platform.activePower(f));

    for (std::size_t i = 0; i < numLowPowerStates; ++i) {
        double lowest = _platform.lowPower(allLowPowerStates[i],
                                           _freqs.front());
        for (double f : _freqs)
            lowest = std::min(lowest,
                              _platform.lowPower(allLowPowerStates[i], f));
        _relaxedIdle[i] = lowest;
    }
    _idleFloor = *std::min_element(_relaxedIdle.begin(),
                                   _relaxedIdle.end());
    _idleCeil = *std::max_element(_relaxedIdle.begin(),
                                  _relaxedIdle.end());
}

double
OfflineOptimal::relaxedIdlePower(LowPowerState state) const
{
    return _relaxedIdle[depthIndex(state)];
}

double
OfflineOptimal::gapCost(double gap, double next_active_power) const
{
    double best = _relaxedIdle[0] * gap;
    for (std::size_t i = 1; i < numLowPowerStates; ++i) {
        const double cost =
            _relaxedIdle[i] * gap +
            _platform.wakeLatency(allLowPowerStates[i]) *
                next_active_power;
        best = std::min(best, cost);
    }
    return best;
}

LowPowerState
OfflineOptimal::gapState(double gap, double next_active_power) const
{
    LowPowerState best_state = allLowPowerStates[0];
    double best = _relaxedIdle[0] * gap;
    for (std::size_t i = 1; i < numLowPowerStates; ++i) {
        const double cost =
            _relaxedIdle[i] * gap +
            _platform.wakeLatency(allLowPowerStates[i]) *
                next_active_power;
        if (cost < best) {
            best = cost;
            best_state = allLowPowerStates[i];
        }
    }
    return best_state;
}

OfflineOptimal::JobCosts
OfflineOptimal::jobCosts(const Job &job) const
{
    JobCosts costs;
    costs.service.reserve(_freqs.size());
    costs.busyEnergy.reserve(_freqs.size());
    for (std::size_t k = 0; k < _freqs.size(); ++k) {
        const double service = job.size * _scaling.factor(_freqs[k]);
        costs.service.push_back(service);
        costs.busyEnergy.push_back(service * _activePower[k]);
    }
    costs.minBusyEnergy = *std::min_element(costs.busyEnergy.begin(),
                                            costs.busyEnergy.end());
    // Service time is non-increasing in frequency, so the fastest run
    // is at the top of the (ascending) grid.
    costs.minService = costs.service.back();
    return costs;
}

namespace {

/** Exact-solver DP state: completion time, accumulated energy, and the
 * decision path (frequency index per job) for reconstruction. */
struct ExactState
{
    double c;
    double energy;
    std::vector<std::uint16_t> path;
};

/** FPTAS DP state. cGrid/energy are the rounded-grid (lower-bound)
 * coordinates; cTrue/energyTrue re-run the same decisions without
 * rounding, giving an achievable upper bound. */
struct GridState
{
    std::int64_t cell;
    double cGrid;
    double energy;
    double cTrue;
    double energyTrue;
};

} // namespace

OfflineOptResult
OfflineOptimal::solveExact(const OfflineOptInstance &instance) const
{
    const std::size_t n = instance.jobs.size();

    std::vector<JobCosts> costs;
    costs.reserve(n);
    for (const Job &job : instance.jobs)
        costs.push_back(jobCosts(job));

    std::vector<ExactState> frontier{{0.0, 0.0, {}}};
    std::vector<ExactState> next;
    std::size_t peak = 1;

    for (std::size_t j = 0; j < n; ++j) {
        next.clear();
        for (const ExactState &state : frontier) {
            const double start = std::max(state.c, instance.jobs[j].arrival);
            const double gap = start - state.c;
            for (std::size_t k = 0; k < _freqs.size(); ++k) {
                ExactState successor;
                successor.c = start + costs[j].service[k];
                successor.energy =
                    state.energy + costs[j].busyEnergy[k] +
                    (gap > 0.0 ? gapCost(gap, _activePower[k]) : 0.0);
                successor.path = state.path;
                successor.path.push_back(
                    static_cast<std::uint16_t>(k));
                next.push_back(std::move(successor));
            }
        }
        std::sort(next.begin(), next.end(),
                  [](const ExactState &a, const ExactState &b) {
                      if (a.c != b.c)
                          return a.c < b.c;
                      return a.energy < b.energy;
                  });
        // The future cost is non-increasing in the completion time, so
        // (c_A >= c_B, E_A <= E_B) dominates exactly: sweep from the
        // latest state down, keeping only strict energy improvements.
        frontier.clear();
        for (std::size_t i = next.size(); i-- > 0;) {
            if (i > 0 && next[i - 1].c == next[i].c)
                continue; // A cheaper state shares this c.
            if (frontier.empty() ||
                next[i].energy < frontier.back().energy)
                frontier.push_back(std::move(next[i]));
        }
        std::reverse(frontier.begin(), frontier.end());
        peak = std::max(peak, frontier.size());
        fatalIf(frontier.size() > _options.maxExactStates,
                "OfflineOptimal::solveExact: frontier exceeded "
                "maxExactStates (" +
                    std::to_string(_options.maxExactStates) +
                    ") at job " + std::to_string(j) +
                    "; use solve() for logs this size");
    }

    const ExactState *best = nullptr;
    double best_total = 0.0;
    for (const ExactState &state : frontier) {
        const double total =
            state.energy +
            _idleFloor * std::max(0.0, instance.horizon - state.c);
        if (best == nullptr || total < best_total) {
            best = &state;
            best_total = total;
        }
    }

    OfflineOptResult result;
    result.energy = best_total;
    result.upperBound = best_total;
    result.elapsed = instance.horizon;
    result.frontierPeak = peak;
    result.jobFrequencies.reserve(n);
    result.gapStates.reserve(n);
    double c = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        const std::size_t k = best->path[j];
        const double start = std::max(c, instance.jobs[j].arrival);
        const double gap = start - c;
        result.jobFrequencies.push_back(_freqs[k]);
        result.gapStates.push_back(
            gap > 0.0 ? gapState(gap, _activePower[k])
                      : LowPowerState::C0IdleS0Idle);
        c = start + costs[j].service[k];
    }
    return result;
}

OfflineOptimal::GreedyBound
OfflineOptimal::greedyUpperBound(const OfflineOptInstance &instance,
                                 const std::vector<JobCosts> &costs) const
{
    double c = 0.0;
    double energy = 0.0;
    std::size_t gaps = 0;
    for (std::size_t j = 0; j < instance.jobs.size(); ++j) {
        const double start = std::max(c, instance.jobs[j].arrival);
        const double gap = start - c;
        double best_cost = 0.0;
        std::size_t best_k = 0;
        for (std::size_t k = 0; k < _freqs.size(); ++k) {
            const double cost =
                costs[j].busyEnergy[k] +
                (gap > 0.0 ? gapCost(gap, _activePower[k]) : 0.0);
            if (k == 0 || cost < best_cost) {
                best_cost = cost;
                best_k = k;
            }
        }
        energy += best_cost;
        if (gap > 0.0)
            ++gaps;
        c = start + costs[j].service[best_k];
    }
    energy += _idleFloor * std::max(0.0, instance.horizon - c);
    return GreedyBound{energy, gaps};
}

OfflineOptResult
OfflineOptimal::fptasPass(const OfflineOptInstance &instance,
                          const std::vector<JobCosts> &costs,
                          double delta, double merge_eta,
                          double upper_bound, bool allow_abort,
                          std::size_t max_states) const
{
    const std::size_t n = instance.jobs.size();

    // Suffixes of unavoidable busy energy and of slowest-possible
    // service time, for upper-bound pruning: whatever frequencies a
    // path still picks, its remaining idle window is at least the
    // horizon minus the longest the remaining service could take
    // (service[0] is the slowest grid entry).
    std::vector<double> suffix(n + 1, 0.0);
    std::vector<double> suffix_service(n + 1, 0.0);
    for (std::size_t j = n; j-- > 0;) {
        suffix[j] = suffix[j + 1] + costs[j].minBusyEnergy;
        suffix_service[j] =
            suffix_service[j + 1] + costs[j].service.front();
    }
    const double prune_slack =
        1e-9 * std::max(1.0, upper_bound) + kTimeTolerance;

    // Sort + per-cell dedupe + Pareto sweep: keep, per cell, only
    // states no later-and-cheaper state dominates.
    const auto compact = [&](std::vector<GridState> &states) {
        std::sort(states.begin(), states.end(),
                  [](const GridState &a, const GridState &b) {
                      if (a.cell != b.cell)
                          return a.cell < b.cell;
                      return a.energy < b.energy;
                  });
        std::vector<GridState> kept;
        double best_energy = 0.0;
        for (std::size_t i = states.size(); i-- > 0;) {
            if (i > 0 && states[i - 1].cell == states[i].cell)
                continue; // A cheaper state shares the cell.
            if (kept.empty() || states[i].energy < best_energy) {
                kept.push_back(states[i]);
                best_energy = states[i].energy;
            }
        }
        std::reverse(kept.begin(), kept.end());
        // Lipschitz dominance: finishing later by dc can save at most
        // dc * (max relaxed idle power) on future gaps, so a later
        // state whose energy premium over an earlier one exceeds
        // dc * idleCeil can never catch up — dropping it is exact, and
        // it kills the slow-frequency lineages whose backlog otherwise
        // spreads the frontier at low load.
        std::size_t out = 0;
        double min_shifted = 0.0;
        for (std::size_t i = 0; i < kept.size(); ++i) {
            const double shifted =
                kept[i].energy - kept[i].cGrid * _idleCeil;
            if (i == 0 || shifted < min_shifted) {
                kept[out++] = kept[i];
                min_shifted =
                    i == 0 ? shifted : std::min(min_shifted, shifted);
            }
        }
        kept.resize(out);
        states.swap(kept);
    };

    std::vector<GridState> frontier{{0, 0.0, 0.0, 0.0, 0.0}};
    std::vector<GridState> next;
    std::size_t peak = 1;
    std::size_t coarsenings = 0;
    double debt = 0.0;

    for (std::size_t j = 0; j < n; ++j) {
        const double arrival = instance.jobs[j].arrival;
        next.clear();
        for (const GridState &state : frontier) {
            const double start = std::max(state.cGrid, arrival);
            const double gap = start - state.cGrid;
            const double start_true = std::max(state.cTrue, arrival);
            const double gap_true = start_true - state.cTrue;
            for (std::size_t k = 0; k < _freqs.size(); ++k) {
                const double done = start + costs[j].service[k];
                GridState successor;
                // Round the completion *up*: gaps can only shrink, so
                // the grid value stays a valid lower bound.
                successor.cell = static_cast<std::int64_t>(
                    std::ceil(done / delta - kTimeTolerance));
                successor.cGrid =
                    static_cast<double>(successor.cell) * delta;
                successor.energy =
                    state.energy + costs[j].busyEnergy[k] +
                    (gap > 0.0 ? gapCost(gap, _activePower[k]) : 0.0);
                successor.cTrue = start_true + costs[j].service[k];
                successor.energyTrue =
                    state.energyTrue + costs[j].busyEnergy[k] +
                    (gap_true > 0.0
                         ? gapCost(gap_true, _activePower[k])
                         : 0.0);
                // A state whose certain remaining floor already beats
                // the incumbent upper bound cannot be optimal. The
                // threshold carries the accumulated merge debt: after
                // eta-merges the optimal path's surviving representative
                // may cost up to `debt` more than the path itself, so
                // pruning at the bare upper bound could evict it (and
                // empty the frontier when the bracket is within debt).
                const double floor =
                    successor.energy + suffix[j + 1] +
                    _idleFloor *
                        std::max(0.0, instance.horizon -
                                          successor.cGrid -
                                          suffix_service[j + 1]);
                if (floor > upper_bound + debt + prune_slack)
                    continue;
                next.push_back(successor);
            }
        }
        // The grid image of the optimal schedule costs at most the
        // incumbent upper bound at every prefix, so it always survives
        // the pruning above.
        if (next.empty())
            panic("OfflineOptimal: FPTAS frontier emptied (the "
                  "pruning floor is not a lower bound)");
        compact(next);
        // Near-critical load keeps thousands of Lipschitz-incomparable
        // lineages pinned along the E = c * idleCeil boundary, spaced
        // millijoules apart. Merging a state into the previous kept
        // one when its shifted energy E - c * idleCeil is within eta
        // costs the optimal path at most eta per step (its merge target
        // trails it by < eta in guaranteed total); the accumulated debt
        // is subtracted from the reported bound, keeping it certified.
        if (merge_eta > 0.0 && next.size() > kSoftFrontier) {
            std::size_t out = 1;
            double last_shifted =
                next[0].energy - next[0].cGrid * _idleCeil;
            bool merged = false;
            for (std::size_t i = 1; i < next.size(); ++i) {
                const double shifted =
                    next[i].energy - next[i].cGrid * _idleCeil;
                if (shifted < last_shifted - merge_eta) {
                    next[out++] = next[i];
                    last_shifted = shifted;
                } else {
                    merged = true;
                }
            }
            next.resize(out);
            if (merged)
                debt += merge_eta;
        }
        // Frontier spikes (long busy periods spread completion times
        // across many cells) coarsen the lattice locally instead of
        // failing the pass: snapping cells further *up* is one more
        // relaxation, so the lower bound stays valid and the ride-along
        // true-dynamics costs keep certifying the achieved bracket.
        std::int64_t lattice = 1;
        while (next.size() > max_states) {
            lattice *= 2;
            ++coarsenings;
            for (GridState &state : next) {
                const std::int64_t idx =
                    (state.cell + lattice - 1) / lattice;
                state.cell = idx * lattice;
                state.cGrid = static_cast<double>(state.cell) * delta;
            }
            compact(next);
        }
        if (allow_abort && coarsenings > kMaxCoarsenings) {
            // This resolution wants far more states than the cap; the
            // bracket would come out mush. Bail out cheaply and let
            // solve() move to the next grid in its schedule.
            OfflineOptResult aborted;
            aborted.energy = -std::numeric_limits<double>::infinity();
            aborted.upperBound = std::numeric_limits<double>::infinity();
            aborted.elapsed = instance.horizon;
            aborted.coarsenings = coarsenings;
            return aborted;
        }
        frontier.swap(next);
        peak = std::max(peak, frontier.size());
    }

    double best_lower = 0.0;
    double best_upper = 0.0;
    bool have = false;
    for (const GridState &state : frontier) {
        const double lower =
            state.energy +
            _idleFloor * std::max(0.0, instance.horizon - state.cGrid);
        const double upper =
            state.energyTrue +
            _idleFloor * std::max(0.0, instance.horizon - state.cTrue);
        if (!have || lower < best_lower)
            best_lower = lower;
        if (!have || upper < best_upper)
            best_upper = upper;
        have = true;
    }

    OfflineOptResult out;
    out.energy = best_lower - debt;
    out.upperBound = std::min(best_upper, upper_bound);
    out.elapsed = instance.horizon;
    out.frontierPeak = peak;
    out.coarsenings = coarsenings;
    out.mergeDebt = debt;
    return out;
}

OfflineOptResult
OfflineOptimal::solve(const OfflineOptInstance &instance) const
{
    const std::size_t n = instance.jobs.size();

    OfflineOptResult result;
    result.epsilon = _options.epsilon;
    result.elapsed = instance.horizon;
    if (n == 0) {
        result.energy = _idleFloor * instance.horizon;
        result.upperBound = result.energy;
        result.frontierPeak = 1;
        return result;
    }

    std::vector<JobCosts> costs;
    costs.reserve(n);
    for (const Job &job : instance.jobs)
        costs.push_back(jobCosts(job));

    double min_busy = 0.0;
    double min_service = 0.0;
    for (const JobCosts &job : costs) {
        min_busy += job.minBusyEnergy;
        min_service += job.minService;
    }
    const double lower_seed =
        min_busy + _idleFloor *
                       std::max(0.0, instance.horizon - min_service);
    const GreedyBound greedy = greedyUpperBound(instance, costs);
    double upper_bound = greedy.energy;

    if (!(lower_seed > 0.0)) {
        // Zero-size jobs over a zero horizon: nothing costs anything.
        result.energy = 0.0;
        result.upperBound = upper_bound;
        result.frontierPeak = 1;
        result.epsilonEffective = 0.0;
        return result;
    }

    // A-priori FPTAS bound: rounding completions up to a delta-lattice
    // shortens each gap by at most its busy chain's accumulated drift,
    // so the total under-charge stays below n * delta * (max idle
    // power) and the job-calibrated grid certifies the bracket on its
    // own. It is affordable because the eta-merge in fptasPass
    // collapses the near-critical staircase (coarser grids are wider,
    // not narrower — their rounding bonus creates genuine grid-level
    // diversity the merge must keep). At high load, though, gaps are
    // rare and a grid calibrated to the greedy schedule's *gap* count
    // often certifies the bracket orders of magnitude faster, so it is
    // tried first when meaningfully coarser; a pass that thrashes the
    // frontier cap aborts cheaply. Grids are nested across halvings,
    // keeping the lower bound monotone non-decreasing and the energy
    // monotone in epsilon for epsilon halvings (the monotonicity
    // tests rely on this).
    const double delta_cap = std::max(1.0, instance.horizon);
    const double delta_job = std::clamp(
        _options.epsilon * lower_seed /
            (static_cast<double>(n) * _idleCeil),
        1e-12, delta_cap);
    const double delta_gap = std::clamp(
        _options.epsilon * lower_seed /
            (static_cast<double>(std::max<std::size_t>(greedy.gaps, 1)) *
             _idleCeil),
        1e-12, delta_cap);
    std::vector<double> schedule;
    if (delta_gap > 2.0 * delta_job)
        schedule.push_back(delta_gap);
    for (double d = delta_job;
         schedule.size() < static_cast<std::size_t>(kMaxRefinements);
         d *= 0.5)
        schedule.push_back(d);
    // Merge budget: a quarter of the epsilon allowance spread over the
    // jobs (the optimal path pays at most one eta per step).
    const double merge_eta = 0.25 * _options.epsilon * lower_seed /
                             static_cast<double>(n);

    OfflineOptResult best;
    bool have = false;
    std::size_t coarsenings = 0;
    double merge_debt = 0.0;
    for (std::size_t pass = 0; pass < schedule.size(); ++pass) {
        // The last pass may not abort if no earlier one delivered a
        // bracket: solve() must always return a valid bound.
        const bool allow_abort = have || pass + 1 < schedule.size();
        // The coarse opener is a cheap probe: it only pays off when
        // high-load structure collapses the frontier to a handful of
        // states, so run it under a small cap and let it abort fast.
        const bool probe = schedule[pass] > delta_job && allow_abort;
        const std::size_t max_states =
            probe ? std::min(_options.maxStates, 2 * kSoftFrontier)
                  : _options.maxStates;
        const OfflineOptResult attempt =
            fptasPass(instance, costs, schedule[pass], merge_eta,
                      upper_bound, allow_abort, max_states);
        coarsenings += attempt.coarsenings;
        if (!std::isfinite(attempt.energy))
            continue; // Aborted on the coarsening budget.
        if (!have) {
            best = attempt;
            merge_debt = attempt.mergeDebt;
        } else {
            if (attempt.energy > best.energy) {
                best.energy = attempt.energy;
                merge_debt = attempt.mergeDebt;
            }
            best.upperBound =
                std::min(best.upperBound, attempt.upperBound);
            best.frontierPeak =
                std::max(best.frontierPeak, attempt.frontierPeak);
        }
        have = true;
        upper_bound = std::min(upper_bound, best.upperBound);
        if (best.upperBound <=
            (1.0 + _options.epsilon) * best.energy + kTimeTolerance)
            break;
        // Once the cap binds at (or past) the job-calibrated grid,
        // finer grids just re-coarsen; the coarse opener falls through
        // to the fine schedule instead.
        if (attempt.coarsenings > 0 && schedule[pass] <= delta_job)
            break;
    }

    result.energy = best.energy;
    result.upperBound = best.upperBound;
    result.frontierPeak = best.frontierPeak;
    result.coarsenings = coarsenings;
    result.mergeDebt = merge_debt;
    result.epsilonEffective =
        result.energy > 0.0
            ? result.upperBound / result.energy - 1.0
            : 0.0;
    return result;
}

} // namespace sleepscale
