/**
 * @file
 * Streaming job sources: the one way to generate a workload.
 *
 * Every engine consumes arrivals through the JobSource interface
 * instead of a materialized std::vector<Job>, so a million-job farm day
 * streams in O(epoch) memory and new scenario shapes compose from
 * existing pieces instead of growing new ad-hoc generator functions.
 * Code that needs the whole list at once (tests, offline tools,
 * frequency sweeps over one job list) drains a source with
 * materialize(): the paper's Section 4.1 list of n jobs at load rho is
 * `StationarySource source(spec, rho, seed); materialize(source, n)`.
 *
 * The primitive sources mirror the paper's workload constructions:
 *
 *  - StationarySource   — fixed-load (mean, Cv) arrivals (Section 4.1).
 *  - TraceDrivenSource  — minute-scale utilization modulation with the
 *                         gap shape held fixed (Section 6).
 *  - BurstySource       — MMPP-style burst episodes over a stationary
 *                         baseline (scale-out burst patterns).
 *  - ReplaySource       — file-backed replay of CSV job logs
 *                         (Google-cluster-style arrival,size[,class]
 *                         rows), parsed lazily with line-numbered
 *                         validation.
 *  - VectorSource       — adapter over an in-memory job list.
 *
 * Two combinators build composite streams: merge() interleaves N
 * sources with a deterministic tie-break, and until() ends a stream at
 * a time bound.
 *
 * Sources are registered by name in jobSourceRegistry() so
 * ScenarioSpec can pick and parameterize them declaratively.
 *
 * Contracts every source obeys:
 *  - next() either fills the Job and returns true, or returns false
 *    forever after (the stream is exhausted).
 *  - Arrival times are non-decreasing.
 *  - reset(seed) rewinds to the start of the stream; equal seeds yield
 *    bit-identical streams.
 *  - clone() duplicates the full state, including mid-stream position:
 *    a clone continues exactly where the original would have.
 */

#ifndef SLEEPSCALE_WORKLOAD_JOB_SOURCE_HH
#define SLEEPSCALE_WORKLOAD_JOB_SOURCE_HH

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/registry.hh"
#include "util/rng.hh"
#include "workload/distribution.hh"
#include "workload/job.hh"
#include "workload/utilization_trace.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {

/** Pull-based stream of jobs with non-decreasing arrival times. */
class JobSource
{
  public:
    virtual ~JobSource() = default;

    /**
     * Produce the next job.
     *
     * @param out Filled with the job when one is available.
     * @return True when out was filled; false when the stream is
     *         exhausted (and on every later call).
     */
    virtual bool next(Job &out) = 0;

    /**
     * Rewind to the start of the stream. Equal seeds yield bit-identical
     * streams; sources without randomness ignore the seed.
     */
    virtual void reset(std::uint64_t seed) = 0;

    /**
     * Duplicate the source, mid-stream position included: the clone's
     * future output is exactly the original's. Cheap — no job is ever
     * materialized.
     */
    virtual std::unique_ptr<JobSource> clone() const = 0;
};

/**
 * Drain a source into a vector.
 *
 * @param source Source to drain (consumed).
 * @param max_jobs Stop after this many jobs (guards infinite sources).
 */
std::vector<Job> materialize(JobSource &source,
                             std::size_t max_jobs = SIZE_MAX);

// --------------------------------------------------------------- sources

/**
 * Unbounded stationary arrivals: i.i.d. inter-arrival gaps and service
 * demands (the paper's Section 4.1 construction).
 */
class StationarySource final : public JobSource
{
  public:
    /**
     * @param inter_arrival Gap distribution.
     * @param service Service-demand distribution (sizes at f = 1).
     * @param seed RNG seed.
     */
    StationarySource(std::unique_ptr<Distribution> inter_arrival,
                     std::unique_ptr<Distribution> service,
                     std::uint64_t seed);

    /**
     * Workload at a target utilization.
     *
     * @param rate_scale Extra arrival-rate multiplier, positive and
     *        finite (a farm of N servers at per-server load u uses
     *        rate_scale = N).
     */
    StationarySource(const WorkloadSpec &spec, double utilization,
                     std::uint64_t seed, double rate_scale = 1.0);

    bool next(Job &out) override;
    void reset(std::uint64_t seed) override;
    std::unique_ptr<JobSource> clone() const override;

  private:
    StationarySource(const StationarySource &other); // deep copy

    std::unique_ptr<Distribution> _interArrival;
    std::unique_ptr<Distribution> _service;
    Rng _rng;
    double _clock = 0.0;
};

/**
 * Trace-modulated arrivals (paper Section 6): gaps keep the workload's
 * inter-arrival Cv while the mean is rescaled minute by minute so the
 * offered load follows the utilization trace. Service demands stay
 * stationary. The stream ends at the end of the trace.
 */
class TraceDrivenSource final : public JobSource
{
  public:
    /**
     * @param spec Workload characterization.
     * @param trace Per-minute utilization targets.
     * @param seed RNG seed.
     * @param rate_scale Arrival-rate multiplier on top of the trace,
     *        positive and finite (farm aggregation: the trace is
     *        per-server load, so a farm of N servers uses N).
     */
    TraceDrivenSource(const WorkloadSpec &spec, UtilizationTrace trace,
                      std::uint64_t seed, double rate_scale = 1.0);

    bool next(Job &out) override;
    void reset(std::uint64_t seed) override;
    std::unique_ptr<JobSource> clone() const override;

  private:
    TraceDrivenSource(const TraceDrivenSource &other); // deep copy

    double _serviceMean;
    UtilizationTrace _trace;
    std::unique_ptr<Distribution> _unitGap;
    std::unique_ptr<Distribution> _service;
    double _rateScale;
    Rng _rng;
    double _clock = 0.0;
    bool _done = false;
};

/**
 * Burst-injected arrivals: a two-state Markov-modulated process. The
 * baseline is a stationary stream at `utilization`; burst episodes
 * multiply the arrival rate by `burst_factor`. Episode lengths and the
 * gaps between episodes are exponential. State flips are sampled at job
 * boundaries, so episode durations are honored up to one inter-arrival
 * gap — the standard discrete-event MMPP approximation.
 */
class BurstySource final : public JobSource
{
  public:
    /**
     * @param spec Workload characterization.
     * @param utilization Baseline offered load in (0, 1).
     * @param burst_factor Rate multiplier inside bursts (>= 1, finite).
     * @param burst_mean_length Mean episode length, seconds (finite,
     *        > 0).
     * @param burst_mean_gap Mean time between episodes, seconds
     *        (finite, > 0).
     * @param seed RNG seed.
     * @param rate_scale Extra arrival-rate multiplier (farm use;
     *        positive and finite).
     */
    BurstySource(const WorkloadSpec &spec, double utilization,
                 double burst_factor, double burst_mean_length,
                 double burst_mean_gap, std::uint64_t seed,
                 double rate_scale = 1.0);

    bool next(Job &out) override;
    void reset(std::uint64_t seed) override;
    std::unique_ptr<JobSource> clone() const override;

  private:
    BurstySource(const BurstySource &other); // deep copy

    std::unique_ptr<Distribution> _gap;     ///< Baseline gaps.
    std::unique_ptr<Distribution> _service;
    double _burstFactor;
    double _burstMeanLength;
    double _burstMeanGap;
    Rng _rng;
    double _clock = 0.0;
    bool _inBurst = false;
    double _stateEnd = 0.0;
    bool _primed = false;
};

/**
 * File-backed replay of a CSV job log with `arrival,size[,class]` rows
 * (Google-cluster-trace style). Rows are parsed lazily — the file is
 * never materialized — and validated as they stream: non-numeric, NaN,
 * infinite, or negative fields and out-of-order arrivals raise a
 * line-numbered ConfigError. Lines starting with '#' are comments; the
 * first non-comment line whose fields are not numeric is treated as a
 * header and skipped. A file with or without a trailing newline on its
 * last row replays identically (clone() included). A log that yields
 * no data rows at all — empty, comment-only, or header-only — raises a
 * ConfigError naming the file rather than silently streaming nothing.
 */
class ReplaySource final : public JobSource
{
  public:
    /** @param path CSV file; opened immediately, fatal() when absent. */
    explicit ReplaySource(std::string path);

    bool next(Job &out) override;
    /** Rewinds to the first row; the seed is ignored (replay is
     * deterministic by construction). */
    void reset(std::uint64_t seed) override;
    std::unique_ptr<JobSource> clone() const override;

  private:
    std::string _path;
    std::ifstream _in;
    std::streampos _pos{0};      ///< Offset after the last read line.
    std::size_t _line = 0;       ///< 1-based line of the last read.
    std::size_t _rows = 0;       ///< Data rows yielded so far.
    double _lastArrival = 0.0;
    bool _headerChecked = false;
    bool _done = false;

    void open();
    [[noreturn]] void rowError(const std::string &what) const;
};

/** Adapter streaming an in-memory job list. */
class VectorSource final : public JobSource
{
  public:
    /** Owning: the source keeps the jobs alive. */
    explicit VectorSource(std::vector<Job> jobs);

    /** Non-owning view; `jobs` must outlive the source and its clones. */
    static VectorSource view(const std::vector<Job> &jobs);

    bool next(Job &out) override;
    /** Rewinds; the seed is ignored. */
    void reset(std::uint64_t seed) override;
    std::unique_ptr<JobSource> clone() const override;

  private:
    VectorSource() = default;

    std::shared_ptr<const std::vector<Job>> _owned;
    const std::vector<Job> *_jobs = nullptr;
    std::size_t _next = 0;
};

// ----------------------------------------------------------- combinators

/**
 * Interleave N sources into one stream ordered by arrival time.
 *
 * Tie-break: on equal arrivals the source with the lowest index yields
 * first — deterministic and stable, so merged streams are reproducible
 * regardless of how the inputs were constructed.
 *
 * reset(seed) resets child i with the derived seed mixSeed(seed + i),
 * keeping the children's streams decorrelated under one master seed.
 */
std::unique_ptr<JobSource>
merge(std::vector<std::unique_ptr<JobSource>> sources);

/** Jobs arriving strictly before `end_time` seconds (> 0, not NaN). */
std::unique_ptr<JobSource> until(std::unique_ptr<JobSource> source,
                                 double end_time);

// -------------------------------------------------------------- registry

/**
 * Parameter bag handed to registered job-source factories. Factories
 * read the fields they need and ignore the rest, so one declarative
 * schema (ScenarioSpec, the CLI) covers every source.
 */
struct JobSourceConfig
{
    WorkloadSpec workload;         ///< Characterization (most sources).
    UtilizationTrace trace;        ///< Modulation ("trace" source).
    double utilization = 0.3;      ///< Level ("stationary", "bursty").
    double rateScale = 1.0;        ///< Arrival-rate multiplier
                                   ///< (ignored by "replay").
    double burstRateFactor = 4.0;  ///< "bursty": in-burst multiplier.
    double burstMeanLength = 120.0; ///< "bursty": episode mean, s.
    double burstMeanGap = 1800.0;  ///< "bursty": between episodes, s.
    std::string replayPath;        ///< "replay": CSV job-log path.
    std::uint64_t seed = 1;        ///< Master seed.
};

/** Factory signature stored in the job-source registry. */
using JobSourceFactory =
    std::function<std::unique_ptr<JobSource>(const JobSourceConfig &)>;

/**
 * The job-source registry. Ships with "trace", "stationary", "bursty",
 * and "replay"; extensions register new shapes under new names and
 * every scenario, sweep, and CLI run can name them.
 */
Registry<JobSourceFactory> &jobSourceRegistry();

/** Build a registered source by name; fatal() on unknown names. */
std::unique_ptr<JobSource> makeJobSource(const std::string &name,
                                         const JobSourceConfig &config);

} // namespace sleepscale

#endif // SLEEPSCALE_WORKLOAD_JOB_SOURCE_HH
