/**
 * @file
 * Deterministic fault injection: seeded streams of server crash and
 * recovery events (docs/FAULTS.md).
 *
 * A FaultSource is the availability-plane twin of JobSource: a
 * pull-based, seed-deterministic stream of timed events, consumed with
 * one-event lookahead by FarmRuntime, which drives each back-end
 * through the up -> draining -> down -> recovering -> up lifecycle in
 * ServerFarm. Its contract:
 *
 *  - next() yields events in non-decreasing time order and returns
 *    false forever once the schedule is exhausted (finite sources
 *    only; the MTBF/MTTR processes are endless and are bounded by the
 *    caller's horizon).
 *  - Two sources built from equal configurations (seed included) yield
 *    the same stream bit-for-bit.
 *
 * All randomness flows through the seeded Rng streams (util/rng.hh) —
 * never ambient entropy — so fault schedules derived from replication
 * seeds keep parallel paired runs bit-identical at any lane count.
 */

#ifndef SLEEPSCALE_FAULT_FAULT_SOURCE_HH
#define SLEEPSCALE_FAULT_FAULT_SOURCE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/registry.hh"
#include "util/rng.hh"

namespace sleepscale {

/** One availability transition of one back-end server. */
struct FaultEvent
{
    /** Event time, seconds since run start. */
    double time = 0.0;

    /** Index of the affected server in [0, farmSize). */
    std::size_t server = 0;

    /** True for a crash (server stops accepting work), false for a
     * recovery (server starts accepting again). */
    bool down = true;

    /** Field-wise equality. */
    bool operator==(const FaultEvent &) const = default;
};

/** Pull-based deterministic stream of crash/recovery events. */
class FaultSource
{
  public:
    virtual ~FaultSource() = default;

    /**
     * Produce the next event in non-decreasing time order.
     *
     * @param out Receives the event when one is available.
     * @return False when the schedule is exhausted (and forever after).
     */
    virtual bool next(FaultEvent &out) = 0;
};

/** The empty schedule: no server ever fails. A farm driven by this
 * source reproduces the fault-free runtime bit-for-bit (pinned by
 * tests/farm_fault_test.cc). */
class NoFaultSource final : public FaultSource
{
  public:
    bool next(FaultEvent &out) override;
};

/**
 * Independent per-server exponential failure/repair processes: each
 * server alternates Exp(MTBF) uptime and Exp(MTTR) downtime on its own
 * forked RNG stream, so one server's schedule never perturbs
 * another's. Endless — bound consumption by a time horizon.
 */
class MtbfFaultSource final : public FaultSource
{
  public:
    /**
     * @param farm_size Number of servers scheduled (>= 1).
     * @param mtbf Mean uptime between failures, seconds (> 0).
     * @param mttr Mean downtime to recovery, seconds (> 0).
     * @param seed Master seed; per-server streams are forked from it.
     */
    MtbfFaultSource(std::size_t farm_size, double mtbf, double mttr,
                    std::uint64_t seed);

    bool next(FaultEvent &out) override;

  private:
    std::size_t _farmSize;
    double _mtbf;
    double _mttr;

    /** One generator per server, forked from the master seed. */
    std::vector<Rng> _rngs;

    /** Each server's next pending transition (index-aligned). */
    std::vector<FaultEvent> _pending;
};

/** Servers per correlated outage (a one-server farm loses its one
 * server). */
constexpr std::size_t correlatedGroup = 2;

/**
 * Correlated multi-server outages (a rack or PDU failure): one
 * exponential outage process takes down a contiguous block of
 * correlatedGroup servers simultaneously; the whole block recovers
 * together after Exp(MTTR). The block start is drawn uniformly and
 * wraps around the farm. The next outage is drawn from the recovery
 * point, so outages never overlap. Endless — bound consumption by a
 * time horizon.
 */
class CorrelatedFaultSource final : public FaultSource
{
  public:
    /**
     * @param farm_size Number of servers (>= 1).
     * @param mtbf Mean time between outages, seconds (> 0).
     * @param mttr Mean outage duration, seconds (> 0).
     * @param seed Seed of the outage process.
     */
    CorrelatedFaultSource(std::size_t farm_size, double mtbf, double mttr,
                          std::uint64_t seed);

    bool next(FaultEvent &out) override;

  private:
    std::size_t _farmSize;
    double _mtbf;
    double _mttr;
    Rng _rng;

    /** Events of the outage currently being emitted. */
    std::vector<FaultEvent> _queue;

    /** Next unread index into _queue. */
    std::size_t _cursor = 0;

    /** End time of the last scheduled outage. */
    double _clock = 0.0;

    void scheduleOutage();
};

/**
 * A scripted crash/recovery trace: events are validated up front
 * (non-decreasing times, finite and non-negative, server indices in
 * range) and replayed verbatim; there is no seed — the script IS the
 * schedule. An empty script is the no-fault schedule.
 */
class ScriptedFaultSource final : public FaultSource
{
  public:
    /**
     * @param farm_size Number of servers events may reference.
     * @param events The schedule, in non-decreasing time order.
     */
    ScriptedFaultSource(std::size_t farm_size,
                        std::vector<FaultEvent> events);

    bool next(FaultEvent &out) override;

  private:
    std::vector<FaultEvent> _events;
    std::size_t _cursor = 0;
};

/** Everything a registered fault-source factory may need. */
struct FaultSourceConfig
{
    /** Number of back-end servers the schedule drives (>= 1). */
    std::size_t farmSize = 1;

    /** Mean time between failures, seconds ("mtbf"/"correlated"). */
    double mtbf = 4.0 * 3600.0;

    /** Mean time to recovery, seconds ("mtbf"/"correlated"). */
    double mttr = 300.0;

    /** Scripted schedule ("scripted" only). */
    std::vector<FaultEvent> script;

    /** Seed of the stochastic schedules. */
    std::uint64_t seed = 1;
};

/** Factory signature stored in faultSourceRegistry(). */
using FaultSourceFactory =
    std::function<std::unique_ptr<FaultSource>(const FaultSourceConfig &)>;

/** The registry of fault-source families: "none", "mtbf",
 * "correlated", "scripted". Unknown names fail fast listing the
 * registered alternatives. */
Registry<FaultSourceFactory> &faultSourceRegistry();

/** Construct a registered fault source by name (validates the
 * configuration ranges the family needs). */
std::unique_ptr<FaultSource> makeFaultSource(const std::string &name,
                                             const FaultSourceConfig &config);

/**
 * Drain a source into a vector, stopping at `horizon` (exclusive) or
 * after `max_events`, whichever comes first — the test/bench helper
 * for the endless stochastic schedules.
 */
std::vector<FaultEvent> materializeFaults(FaultSource &source,
                                          double horizon,
                                          std::size_t max_events = 100000);

} // namespace sleepscale

#endif // SLEEPSCALE_FAULT_FAULT_SOURCE_HH
