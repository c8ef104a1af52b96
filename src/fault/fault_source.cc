#include "fault/fault_source.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hh"

namespace sleepscale {

// --------------------------------------------------------- NoFaultSource

bool
NoFaultSource::next(FaultEvent &)
{
    return false;
}

// ------------------------------------------------------- MtbfFaultSource

MtbfFaultSource::MtbfFaultSource(std::size_t farm_size, double mtbf,
                                 double mttr, std::uint64_t seed)
    : _farmSize(farm_size), _mtbf(mtbf), _mttr(mttr)
{
    fatalIf(farm_size == 0,
            "MtbfFaultSource: farm size must be >= 1");
    fatalIf(!(mtbf > 0.0) || !std::isfinite(mtbf),
            "MtbfFaultSource: MTBF must be positive and finite");
    fatalIf(!(mttr > 0.0) || !std::isfinite(mttr),
            "MtbfFaultSource: MTTR must be positive and finite");
    // One decorrelated stream per server, forked off the master seed,
    // so server i's schedule is invariant to how far the others have
    // been consumed.
    Rng master(seed);
    _rngs.reserve(_farmSize);
    _pending.assign(_farmSize, FaultEvent{});
    for (std::size_t i = 0; i < _farmSize; ++i) {
        _rngs.push_back(master.fork(i));
        _pending[i].time = _rngs[i].exponential(_mtbf);
        _pending[i].server = i;
        _pending[i].down = true;
    }
}

bool
MtbfFaultSource::next(FaultEvent &out)
{
    // Emit the globally earliest pending transition (ties break toward
    // the lowest server index — a deterministic index-order scan, not
    // a hash-ordered heap), then advance that server's alternating
    // up/down schedule.
    std::size_t pick = 0;
    for (std::size_t i = 1; i < _farmSize; ++i) {
        if (_pending[i].time < _pending[pick].time)
            pick = i;
    }
    out = _pending[pick];
    FaultEvent &slot = _pending[pick];
    slot.time += slot.down ? _rngs[pick].exponential(_mttr)
                           : _rngs[pick].exponential(_mtbf);
    slot.down = !slot.down;
    return true;
}

// ------------------------------------------------- CorrelatedFaultSource

CorrelatedFaultSource::CorrelatedFaultSource(std::size_t farm_size,
                                             double mtbf, double mttr,
                                             std::uint64_t seed)
    : _farmSize(farm_size), _mtbf(mtbf), _mttr(mttr), _rng(seed)
{
    fatalIf(farm_size == 0,
            "CorrelatedFaultSource: farm size must be >= 1");
    fatalIf(!(mtbf > 0.0) || !std::isfinite(mtbf),
            "CorrelatedFaultSource: MTBF must be positive and finite");
    fatalIf(!(mttr > 0.0) || !std::isfinite(mttr),
            "CorrelatedFaultSource: MTTR must be positive and finite");
    scheduleOutage();
}

void
CorrelatedFaultSource::scheduleOutage()
{
    // Draw the next outage from the end of the previous one, so blocks
    // never overlap: down events for the whole block at the start, up
    // events for the whole block at recovery, servers in index order
    // within each instant.
    const double start = _clock + _rng.exponential(_mtbf);
    const double end = start + _rng.exponential(_mttr);
    const std::size_t first = _rng.uniformInt(_farmSize);
    _queue.clear();
    _cursor = 0;
    for (std::size_t k = 0; k < std::min(correlatedGroup, _farmSize); ++k)
        _queue.push_back({start, (first + k) % _farmSize, true});
    std::sort(_queue.begin(), _queue.end(),
              [](const FaultEvent &a, const FaultEvent &b) {
                  return a.server < b.server;
              });
    const std::size_t downs = _queue.size();
    for (std::size_t k = 0; k < downs; ++k)
        _queue.push_back({end, _queue[k].server, false});
    _clock = end;
}

bool
CorrelatedFaultSource::next(FaultEvent &out)
{
    if (_cursor == _queue.size())
        scheduleOutage();
    out = _queue[_cursor++];
    return true;
}

// --------------------------------------------------- ScriptedFaultSource

ScriptedFaultSource::ScriptedFaultSource(std::size_t farm_size,
                                         std::vector<FaultEvent> events)
    : _events(std::move(events))
{
    fatalIf(farm_size == 0,
            "ScriptedFaultSource: farm size must be >= 1");
    double last = 0.0;
    for (std::size_t i = 0; i < _events.size(); ++i) {
        const FaultEvent &event = _events[i];
        if (!std::isfinite(event.time) || event.time < 0.0)
            fatal("ScriptedFaultSource: event " + std::to_string(i) +
                  " has a non-finite or negative time");
        if (event.time < last)
            fatal("ScriptedFaultSource: event " + std::to_string(i) +
                  " goes back in time (events must be in "
                  "non-decreasing time order)");
        if (event.server >= farm_size)
            fatal("ScriptedFaultSource: event " + std::to_string(i) +
                  " names server " + std::to_string(event.server) +
                  " in a farm of " + std::to_string(farm_size));
        last = event.time;
    }
}

bool
ScriptedFaultSource::next(FaultEvent &out)
{
    if (_cursor == _events.size())
        return false;
    out = _events[_cursor++];
    return true;
}

// ----------------------------------------------------- registry, helpers

Registry<FaultSourceFactory> &
faultSourceRegistry()
{
    static Registry<FaultSourceFactory> registry = [] {
        Registry<FaultSourceFactory> r("fault source");
        r.add("none", [](const FaultSourceConfig &) {
            return std::make_unique<NoFaultSource>();
        });
        r.add("mtbf", [](const FaultSourceConfig &config) {
            return std::make_unique<MtbfFaultSource>(
                config.farmSize, config.mtbf, config.mttr, config.seed);
        });
        r.add("correlated", [](const FaultSourceConfig &config) {
            return std::make_unique<CorrelatedFaultSource>(
                config.farmSize, config.mtbf, config.mttr, config.seed);
        });
        r.add("scripted", [](const FaultSourceConfig &config) {
            return std::make_unique<ScriptedFaultSource>(
                config.farmSize, config.script);
        });
        return r;
    }();
    return registry;
}

std::unique_ptr<FaultSource>
makeFaultSource(const std::string &name, const FaultSourceConfig &config)
{
    return faultSourceRegistry().get(name)(config);
}

std::vector<FaultEvent>
materializeFaults(FaultSource &source, double horizon,
                  std::size_t max_events)
{
    std::vector<FaultEvent> events;
    FaultEvent event;
    while (events.size() < max_events && source.next(event)) {
        if (event.time >= horizon)
            break;
        events.push_back(event);
    }
    return events;
}

} // namespace sleepscale
