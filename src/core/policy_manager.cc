#include "core/policy_manager.hh"

namespace sleepscale {

PolicyManager::PolicyManager(const PlatformModel &platform,
                             ServiceScaling scaling, PolicySpace space,
                             QosConstraint qos, std::size_t threads)
    : _engine(std::make_unique<PolicyEvalEngine>(
          platform, scaling, std::move(space), qos, threads))
{
}

PolicyDecision
PolicyManager::selectFromLog(const PreparedLog &log) const
{
    return _engine->selectFromLog(log);
}

PolicyDecision
PolicyManager::selectFromLog(const std::vector<Job> &jobs) const
{
    return _engine->selectFromLog(jobs);
}

bool
PolicyManager::needsLog() const
{
    return true;
}

PolicyDecision
PolicyManager::decide(const EpochObservation &, const PreparedLog &log)
{
    return selectFromLog(log);
}

void
PolicyManager::reset()
{
    // Selection is stateless across epochs; the engine's caches are
    // keyed by inputs, so there is nothing to restore.
}

PolicyDecision
PolicyManager::selectAnalytic(double lambda, double mu) const
{
    return _engine->selectAnalytic(lambda, mu);
}

} // namespace sleepscale
