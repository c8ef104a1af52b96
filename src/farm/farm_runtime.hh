/**
 * @file
 * Epoch-driven SleepScale control for a server farm (paper Section 7).
 *
 * The paper conjectures that SleepScale scales out by running on each
 * server independently. This runtime implements both readings of that
 * conjecture as named control modes:
 *
 *  - "farm-wide": one decision per epoch from a *thinned* aggregate job
 *    log — the jobs the dispatcher routes to server 0, the literal
 *    arrival process of one representative back-end — applied to every
 *    server. Valid for
 *    symmetric dispatchers over identical servers, and cheap: the
 *    queueing characterization runs once per epoch.
 *  - "per-server": every back-end owns its own PolicyManager (whose
 *    eval-engine plan cache persists across epochs) fed by
 *    the jobs the dispatcher actually routed to it. Decisions fan out
 *    across a thread pool each epoch and are applied in deterministic
 *    server-index order, so any pool width reproduces the serial run.
 *    This is the general mode: it supports heterogeneous platform
 *    mixes (big/little farms) and skewed dispatchers, where per-server
 *    decisions legitimately diverge.
 *  - "distributed": per-server topology with a zero-communication
 *    decision rule (farm/rate_scaler.hh, after Rutten et al.,
 *    arXiv:2306.02215) — each back-end provisions its frequency from
 *    a local offered-load estimate, with no job logs and no shared
 *    predictor input. The cheapest mode per epoch and the only one
 *    with no farm-global state at all.
 *
 * All three modes run one epoch loop, the only one in the library.
 * Farm-wide control is per-server control with one shared decider: it
 * is fed by server 0's routed jobs and observes the farm-merged window,
 * and its policy goes to every server. The loop also applies the
 * degraded-mode fallback (docs/FAULTS.md) for every decider: a decider
 * starved by an outage is not asked, and under faults an infeasible
 * decision is replaced by the safe fixed policy.
 *
 * The paper's single-server runtime (SleepScaleRuntime, below) is this
 * loop on a one-server farm under farm-wide control.
 *
 * In the symmetric homogeneous case farm-wide and per-server control
 * make statistically identical decisions (pinned by
 * tests/farm_per_server_test.cc), which is the paper's Section 7
 * scale-out argument made executable.
 */

#ifndef SLEEPSCALE_FARM_FARM_RUNTIME_HH
#define SLEEPSCALE_FARM_FARM_RUNTIME_HH

#include <memory>
#include <string>
#include <vector>

#include "core/policy_manager.hh"
#include "core/predictor.hh"
#include "core/runtime.hh"
#include "farm/server_farm.hh"
#include "fault/fault_source.hh"
#include "power/platform_model.hh"
#include "workload/job_source.hh"
#include "workload/utilization_trace.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {

/** Farm-level runtime configuration. */
struct FarmRuntimeConfig
{
    /** Number of back-end servers. */
    std::size_t farmSize = 4;

    /** Dispatcher name: "random", "round-robin", "JSQ", "packing". */
    std::string dispatcher = "random";

    /** Spill threshold for the packing dispatcher, seconds. */
    double packingSpillBacklog = 1.0;

    /** Seed for stochastic dispatchers. */
    std::uint64_t dispatchSeed = 1;

    /** Control mode: "farm-wide" (one thinned-log decision applied
     * everywhere), "per-server" (autonomous per-server decisions from
     * each server's own dispatched log), or "distributed"
     * (zero-communication local rate scaling, farm/rate_scaler.hh:
     * each server tracks its own offered load and scales the
     * frequency of perServer.initialPolicy against the ρ_b target,
     * ignoring the shared predictor). The rate scaler is then the only
     * decision rule, so validateFarmConfig() refuses a distributed
     * config with a controller, a fixed policy, or a policy space
     * without the initial policy's sleep plan: strategies "SS" and
     * "DVFS" run, "poet", "R2H(...)" and "SS(C3)" do not. */
    std::string control = "farm-wide";

    /** Per-server platform names resolved against platformRegistry().
     * Empty means homogeneous (every server uses the platform passed to
     * the FarmRuntime constructor); otherwise the length must equal
     * farmSize and heterogeneous mixes require per-server control. */
    std::vector<std::string> platforms;

    /** Fan-out width of the epoch decision step: 1 decides serially,
     * N > 1 uses an N-lane pool, 0 picks one lane per decider up to
     * the hardware concurrency (farm-wide control has one decider, so
     * it always decides serially). Any width yields bit-identical
     * decisions: each decider's decision lands in an indexed slot and
     * is applied in index order after the fan-out joins
     * (docs/CONCURRENCY.md, invariant 1; this suite runs under TSan in
     * CI via the "concurrency" ctest label). */
    std::size_t decisionThreads = 0;

    /**
     * Shard width of the farm's per-server accounting loops (the
     * per-minute advance and the per-epoch harvest): 1 runs serially
     * (no pool), N > 1 fans the servers out over an N-lane pool in
     * contiguous index ranges, 0 sizes the pool automatically (one
     * lane per 1024 servers, capped at the hardware concurrency).
     * Per-server state is independent and windows merge in index
     * order, so every width is bit-identical — pinned by
     * tests/farm_scale_test.cc at widths 1, 2, and 8.
     */
    std::size_t shards = 1;

    /** Record per-completion response-tail histograms. Farm QoS on
     * mean response does not need them, and at 10k+ servers the
     * per-epoch histogram merges dominate the run, so scale runs turn
     * this off; percentile readouts then report 0. */
    bool tailHistograms = true;

    /** Per-server policy-management knobs (epoch length, α, ρ_b, QoS
     * metric, candidate space, log caps). */
    RuntimeConfig perServer;

    // ------------------------------------------ fault injection
    // (docs/FAULTS.md; all ignored when faults == "none").

    /** Fault-source family ("none", "mtbf", "correlated", "scripted")
     * resolved against faultSourceRegistry(). "none" reproduces the
     * fault-free runtime bit-for-bit. */
    std::string faults = "none";

    /** Mean time between failures, seconds ("mtbf"/"correlated"). */
    double mtbf = 4.0 * 3600.0;

    /** Mean time to recovery, seconds ("mtbf"/"correlated"). */
    double mttr = 300.0;

    /** Servers per correlated outage ("correlated" only). */
    std::size_t correlatedGroup = 2;

    /** Scripted crash/recovery schedule ("scripted" only). */
    std::vector<FaultEvent> faultScript;

    /** Seed of the stochastic fault schedules (derive it from the
     * scenario seed with mixSeed so replications decorrelate). */
    std::uint64_t faultSeed = 1;

    /** Initial failover backoff, seconds of sim time (> 0): a job that
     * finds every server down is retried after retryBackoff, then
     * 2x, 4x, ... capped at retryBackoffCap. */
    double retryBackoff = 1.0;

    /** Ceiling of the exponential failover backoff, seconds. */
    double retryBackoffCap = 60.0;

    /** A job still undispatched this long after its original arrival
     * is dropped and recorded as an SLO loss, seconds. */
    double dropTimeout = 300.0;

    /** Extra delay between a recovery event and the server accepting
     * work again, seconds (the Recovering lifecycle stage). */
    double recoverySeconds = 0.0;

    /** Safe fixed policy controllers fall back to in degraded mode
     * (default: full frequency, no sleep descent). */
    Policy degradedPolicy;

    /** Field-wise equality. */
    bool operator==(const FarmRuntimeConfig &) const = default;
};

/** Availability-plane counters of a fault-injected farm run. All
 * fields are cumulative from the start of the run. */
struct FarmFaultStats
{
    /** Jobs the source offered to the farm. */
    std::uint64_t offered = 0;

    /** Jobs admitted to some server (first try or via failover). */
    std::uint64_t admitted = 0;

    /** Completions across the farm. */
    std::uint64_t completed = 0;

    /** Jobs dropped after dropTimeout — the recorded SLO losses. */
    std::uint64_t dropped = 0;

    /** Failover re-dispatch attempts (every retry counts). */
    std::uint64_t retries = 0;

    /** Jobs in flight: admitted-but-not-completed plus the jobs
     * waiting in the failover retry queue (snapshot, not cumulative).
     * Conservation (pinned by the fault fuzzer): at every epoch close,
     * offered == completed + dropped + inFlight. */
    std::uint64_t inFlight = 0;

    /** Seconds of server unavailability summed across the farm. */
    double downSeconds = 0.0;

    /** Server-seconds of degraded-mode (safe fixed policy) operation,
     * charged at each epoch close by the epoch's actual span (the
     * last epoch ends at the drained horizon). Never exceeds
     * elapsedSeconds × farm size. */
    double degradedSeconds = 0.0;

    /** Server-epochs that ran the degraded fallback policy. */
    std::uint64_t degradedEpochs = 0;

    /** Sim seconds elapsed when this snapshot was taken. */
    double elapsedSeconds = 0.0;

    /** Fraction of server-seconds the farm was available over the
     * elapsed span (1 when no time has elapsed). */
    double availability(std::size_t farm_size) const;

    /** Fraction of offered jobs that completed (1 when nothing was
     * offered). */
    double goodput() const;
};

/** One back-end's slice of a farm run (always populated; per-epoch
 * reports are filled under per-server control, where each server
 * decides for itself). */
struct FarmServerReport
{
    /** Server index in [0, farmSize). */
    std::size_t server = 0;

    /** Name of the platform model this server ran. */
    std::string platform;

    /** This server's whole-run statistics (watts are server watts). */
    SimStats total;

    /** This server's per-epoch decisions and outcomes ("per-server"
     * control only; empty under "farm-wide", whose single decision
     * stream lives in FarmRuntimeResult::epochs). */
    std::vector<EpochReport> epochs;

    /** Jobs the dispatcher routed to this server. */
    std::uint64_t jobsRouted = 0;

    /** Whether this server's pooled response statistic met the farm's
     * QoS budget. */
    bool withinBudget = false;

    /** Whole-run mean response of this server's jobs, seconds. */
    double meanResponse() const { return total.meanResponse(); }

    /** Whole-run average power of this server, watts. */
    double avgPower() const { return total.avgPower(); }
};

/** Aggregate outcome of a farm run. */
struct FarmRuntimeResult
{
    /** Farm-wide merged statistics (watts are farm watts). */
    SimStats total;

    /** Farm-level epoch reports. Under "farm-wide" control the policy
     * fields are the farm-wide decisions; under "per-server" control
     * they carry server 0's policy as a representative (the full
     * per-server decision streams are in servers[i].epochs). */
    std::vector<EpochReport> epochs;

    /** Per-server breakdown, one entry per back-end in index order. */
    std::vector<FarmServerReport> servers;

    /** Control mode that produced this result. */
    std::string control = "farm-wide";

    /** Jobs routed to each server. */
    std::vector<std::uint64_t> jobsPerServer;

    /** The QoS constraint the run was managed against. */
    QosConstraint qos = QosConstraint::meanBudget(1.0);

    /** Whole-run availability-plane counters (all-zero except
     * completed/offered/admitted mirrors for fault-free runs). */
    FarmFaultStats faults;

    /** Cumulative fault counters snapshotted at each epoch close
     * (index-aligned with `epochs`; the fault fuzzer asserts the
     * conservation identity on every entry). */
    std::vector<FarmFaultStats> epochFaults;

    /** Whole-run mean response, seconds. */
    double meanResponse() const { return total.meanResponse(); }

    /** Whole-run farm power, watts. */
    double avgPower() const { return total.avgPower(); }

    /** Whether the pooled response statistic met the budget. */
    bool withinBudget() const { return qos.satisfiedBy(total); }
};

/** Runs SleepScale over a dispatched farm. */
class FarmRuntime
{
  public:
    /**
     * @param platform Power model shared by the servers (not owned)
     *        when config.platforms is empty; otherwise only the
     *        fallback for unspecified entries.
     * @param spec Workload characterization.
     * @param config Farm and per-server knobs; validated up front by
     *        validateFarmConfig() so misconfigurations fail at the
     *        construction site with actionable messages.
     */
    FarmRuntime(const PlatformModel &platform, const WorkloadSpec &spec,
                FarmRuntimeConfig config);

    /**
     * Run a streaming aggregate job source through the farm. Every
     * run starts from freshly reset deciders, so two runs of one
     * runtime on equal inputs are bit-identical.
     *
     * Jobs are pulled epoch by epoch with one-job lookahead; the only
     * job buffers are the decision logs (the thinned farm-wide log, or
     * one log per server under per-server control, each holding the
     * last historyEpochs epochs and at most evalLogCap jobs) and the
     * lookahead itself, so a million-job day streams in O(history)
     * memory with no full-trace materialization.
     *
     * @param source Aggregate arrivals (consumed); the trace's
     *             utilization is the *per-server* offered load (total
     *             demand divided by the farm size).
     * @param trace Per-minute per-server utilization targets.
     * @param predictor Observes per-server offered load each minute;
     *             under per-server control its forecast is the shared
     *             per-server load target each autonomous controller
     *             rescales its own log to.
     */
    FarmRuntimeResult run(JobSource &source,
                          const UtilizationTrace &trace,
                          UtilizationPredictor &predictor) const;

    /**
     * Run a materialized aggregate job list — a thin adapter that
     * streams `jobs` through the JobSource overload; results are
     * identical.
     */
    FarmRuntimeResult run(const std::vector<Job> &jobs,
                          const UtilizationTrace &trace,
                          UtilizationPredictor &predictor) const;

    /** The QoS constraint derived from the configuration. */
    const QosConstraint &qos() const { return _qos; }

    /** The shared farm-wide search policy manager (null for
     * fixed-policy, per-server, or controller configurations).
     * Persistent across epochs and runs so the evaluation engine's
     * plan cache is reused. */
    const PolicyManager *manager() const;

    /** One server's autonomous search policy manager (per-server
     * search control only; fatal() otherwise or when the index is out
     * of range). Persistent across epochs and runs, so each server's
     * eval-engine cache survives the whole farm lifetime. */
    const PolicyManager &serverManager(std::size_t server) const;

    /** Resolved power model of one server. */
    const PlatformModel &serverPlatform(std::size_t server) const;

  private:
    const PlatformModel &_platform;
    WorkloadSpec _spec;
    FarmRuntimeConfig _config;
    QosConstraint _qos;

    /** Platform models resolved from config.platforms (empty for a
     * homogeneous farm on the constructor platform). Sized once in the
     * constructor — the per-server managers hold references into it. */
    std::vector<PlatformModel> _resolvedPlatforms;

    /** One non-owning pointer per server into _resolvedPlatforms (or
     * to the constructor platform), fixed at construction. */
    std::vector<const PlatformModel *> _serverPlatforms;

    /** Persistent deciders (empty for fixed-policy configurations):
     * one shared decider under farm-wide control, else one per
     * back-end. Eval-engine plan caches persist across runs; decision
     * state (controller filters, load estimates) is reset by every
     * run(). Their state mutates during decisions, so concurrent run()
     * calls on one instance are not safe. The decision pool that fans
     * decisions out over them is created per run(), so an idle runtime
     * holds no worker threads. */
    std::vector<std::unique_ptr<EpochDecider>> _deciders;

    /** _deciders entries, when they are the search path (see
     * manager() and serverManager()). */
    std::vector<PolicyManager *> _searchManagers;

    /** Whether config.control selects autonomous per-server control. */
    bool perServerControl() const;
};

/**
 * The one range check of every loop-engine knob (ρ_b through the QoS
 * factory, the poet ControllerConfig, a non-empty policy space and the
 * frequency of every candidate and loop policy included; NaN and
 * infinities fail every check that needs a finite value) and of the
 * rules a distributed farm would drop (see FarmRuntimeConfig::control),
 * run by the FarmRuntime constructor and, before any runtime exists, by
 * ScenarioSpec::validate(). fatal() on the first bad knob.
 *
 * @param spec Workload whose service mean anchors the QoS budget.
 */
void validateFarmConfig(const FarmRuntimeConfig &config,
                        const WorkloadSpec &spec);

/**
 * The farm the paper's single-server runtime runs on: one server,
 * round-robin dispatch, farm-wide control and one decision thread, so
 * the farm-level report stream is the server's own. Every other farm
 * knob keeps its default.
 */
FarmRuntimeConfig singleServerFarm(RuntimeConfig config);

/**
 * The paper's single-server runtime (Sections 5.2 and 6): a one-server
 * farm under farm-wide control. At each epoch boundary it forecasts the
 * upcoming load, rescales the logged jobs of the last historyEpochs
 * epochs to that forecast, lets the decider pick the cheapest
 * QoS-feasible policy, raises its frequency by (1 + α) when the epoch
 * just past met its budget (Section 5.2.3), and runs the epoch under it
 * with the backlog carried over. Fixed-policy strategies (race-to-halt)
 * run through the same loop with the decision pinned.
 */
class SleepScaleRuntime
{
  public:
    /**
     * @param platform Power model (not owned; must outlive the runtime).
     * @param spec Workload characterization.
     * @param config Runtime knobs, validated as FarmRuntime validates
     *        its per-server knobs.
     */
    SleepScaleRuntime(const PlatformModel &platform,
                      const WorkloadSpec &spec, RuntimeConfig config);

    /**
     * Run the full trace, pulling arrivals from a streaming source in
     * O(epoch + history) job memory (see FarmRuntime::run).
     */
    RuntimeResult run(JobSource &source, const UtilizationTrace &trace,
                      UtilizationPredictor &predictor) const;

    /** Run a materialized job list; results are identical. */
    RuntimeResult run(const std::vector<Job> &jobs,
                      const UtilizationTrace &trace,
                      UtilizationPredictor &predictor) const;

    /** The QoS constraint derived from the configuration. */
    const QosConstraint &qos() const { return _farm.qos(); }

    /** The search policy manager (see FarmRuntime::manager()). */
    const PolicyManager *manager() const { return _farm.manager(); }

  private:
    FarmRuntime _farm;
};

/**
 * Delay before failover retry attempt `attempts` (>= 1): the capped
 * exponential backoff min(backoff * 2^(attempts-1), cap), computed in
 * saturating form. The doubling is exact binary scaling (no pow()
 * rounding), and once 2^(attempts-1) would overflow — or the product
 * merely exceeds the cap — the result saturates at the cap instead of
 * wrapping through infinity. In particular a sub-nanosecond backoff
 * still climbs all the way to the cap rather than stalling at
 * backoff * 2^30 forever (the pre-saturation clamp did exactly that,
 * which made an always-down farm retry-spin in near-zero sim time).
 *
 * @param backoff Initial backoff, seconds (> 0, finite).
 * @param attempts Failed dispatch attempts so far (>= 1).
 * @param cap Backoff ceiling, seconds (>= backoff).
 */
double failoverBackoffDelay(double backoff, unsigned attempts,
                            double cap);

} // namespace sleepscale

#endif // SLEEPSCALE_FARM_FARM_RUNTIME_HH
