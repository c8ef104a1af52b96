#include "workload/job_source.hh"

#include <cmath>
#include <sstream>
#include <utility>

#include "util/csv.hh"
#include "util/error.hh"

namespace sleepscale {

namespace {

constexpr double minuteSeconds = 60.0;
/** Floor keeping the trace-modulated mean gap finite through
 * zero-load minutes. */
constexpr double minTraceLoad = 1e-4;

} // namespace

std::vector<Job>
materialize(JobSource &source, std::size_t max_jobs)
{
    std::vector<Job> jobs;
    Job job;
    while (jobs.size() < max_jobs && source.next(job))
        jobs.push_back(job);
    return jobs;
}

// ------------------------------------------------------ StationarySource

StationarySource::StationarySource(
    std::unique_ptr<Distribution> inter_arrival,
    std::unique_ptr<Distribution> service, std::uint64_t seed)
    : _interArrival(std::move(inter_arrival)),
      _service(std::move(service)), _rng(seed)
{
    fatalIf(!_interArrival || !_service,
            "StationarySource: needs both distributions");
}

StationarySource::StationarySource(const WorkloadSpec &spec,
                                   double utilization, std::uint64_t seed,
                                   double rate_scale)
    : _service(spec.makeService()), _rng(seed)
{
    fatalIf(!(rate_scale > 0.0) || !std::isfinite(rate_scale),
            "StationarySource: rate_scale must be positive and finite");
    _interArrival = fitDistribution(
        spec.interArrivalMeanAt(utilization) / rate_scale,
        spec.interArrivalCv);
}

bool
StationarySource::next(Job &out)
{
    _clock += _interArrival->sample(_rng);
    out = Job{};
    out.arrival = _clock;
    out.size = _service->sample(_rng);
    return true;
}

void
StationarySource::reset(std::uint64_t seed)
{
    _rng = Rng(seed);
    _clock = 0.0;
}

StationarySource::StationarySource(const StationarySource &other)
    : _interArrival(other._interArrival->clone()),
      _service(other._service->clone()), _rng(other._rng),
      _clock(other._clock)
{}

std::unique_ptr<JobSource>
StationarySource::clone() const
{
    return std::unique_ptr<StationarySource>(new StationarySource(*this));
}

// ----------------------------------------------------- TraceDrivenSource

TraceDrivenSource::TraceDrivenSource(const WorkloadSpec &spec,
                                     UtilizationTrace trace,
                                     std::uint64_t seed,
                                     double rate_scale)
    : _serviceMean(spec.serviceMean), _trace(std::move(trace)),
      _unitGap(fitDistribution(1.0, spec.interArrivalCv)),
      _service(spec.makeService()), _rateScale(rate_scale), _rng(seed)
{
    fatalIf(_trace.empty(), "TraceDrivenSource: empty trace");
    fatalIf(!(rate_scale > 0.0) || !std::isfinite(rate_scale),
            "TraceDrivenSource: rate_scale must be positive and finite");
    fatalIf(_serviceMean <= 0.0,
            "TraceDrivenSource: serviceMean must be positive");
}

bool
TraceDrivenSource::next(Job &out)
{
    if (_done)
        return false;
    // Same construction as the paper's Section 6 generator: a unit-mean
    // gap with the workload's Cv, rescaled by the current minute's load.
    const double total = _trace.duration();
    while (_clock < total) {
        const auto idx =
            static_cast<std::size_t>(_clock / minuteSeconds);
        const double load = std::max(_trace.at(idx), minTraceLoad);
        const double mean_gap = _serviceMean / (load * _rateScale);
        _clock += mean_gap * _unitGap->sample(_rng);
        if (_clock < total) {
            out = Job{};
            out.arrival = _clock;
            out.size = _service->sample(_rng);
            return true;
        }
    }
    _done = true;
    return false;
}

void
TraceDrivenSource::reset(std::uint64_t seed)
{
    _rng = Rng(seed);
    _clock = 0.0;
    _done = false;
}

TraceDrivenSource::TraceDrivenSource(const TraceDrivenSource &other)
    : _serviceMean(other._serviceMean), _trace(other._trace),
      _unitGap(other._unitGap->clone()),
      _service(other._service->clone()), _rateScale(other._rateScale),
      _rng(other._rng), _clock(other._clock), _done(other._done)
{}

std::unique_ptr<JobSource>
TraceDrivenSource::clone() const
{
    return std::unique_ptr<TraceDrivenSource>(
        new TraceDrivenSource(*this));
}

// --------------------------------------------------------- BurstySource

BurstySource::BurstySource(const WorkloadSpec &spec, double utilization,
                           double burst_factor, double burst_mean_length,
                           double burst_mean_gap, std::uint64_t seed,
                           double rate_scale)
    : _service(spec.makeService()), _burstFactor(burst_factor),
      _burstMeanLength(burst_mean_length), _burstMeanGap(burst_mean_gap),
      _rng(seed)
{
    fatalIf(!(burst_factor >= 1.0) || !std::isfinite(burst_factor),
            "BurstySource: burst_factor must be finite and >= 1");
    fatalIf(!(burst_mean_length > 0.0 && burst_mean_gap > 0.0) ||
                !std::isfinite(burst_mean_length) ||
                !std::isfinite(burst_mean_gap),
            "BurstySource: episode means must be positive and finite");
    fatalIf(!(rate_scale > 0.0) || !std::isfinite(rate_scale),
            "BurstySource: rate_scale must be positive and finite");
    _gap = fitDistribution(
        spec.interArrivalMeanAt(utilization) / rate_scale,
        spec.interArrivalCv);
}

bool
BurstySource::next(Job &out)
{
    if (!_primed) {
        _stateEnd = _rng.exponential(_burstMeanGap);
        _primed = true;
    }
    _clock +=
        _gap->sample(_rng) / (_inBurst ? _burstFactor : 1.0);
    // Episode boundaries are honored at job granularity: once the clock
    // crosses the current episode's end, flip state (possibly several
    // times after a long quiet gap).
    while (_clock >= _stateEnd) {
        _inBurst = !_inBurst;
        _stateEnd += _rng.exponential(_inBurst ? _burstMeanLength
                                               : _burstMeanGap);
    }
    out = Job{};
    out.arrival = _clock;
    out.size = _service->sample(_rng);
    return true;
}

void
BurstySource::reset(std::uint64_t seed)
{
    _rng = Rng(seed);
    _clock = 0.0;
    _inBurst = false;
    _stateEnd = 0.0;
    _primed = false;
}

BurstySource::BurstySource(const BurstySource &other)
    : _gap(other._gap->clone()), _service(other._service->clone()),
      _burstFactor(other._burstFactor),
      _burstMeanLength(other._burstMeanLength),
      _burstMeanGap(other._burstMeanGap), _rng(other._rng),
      _clock(other._clock), _inBurst(other._inBurst),
      _stateEnd(other._stateEnd), _primed(other._primed)
{}

std::unique_ptr<JobSource>
BurstySource::clone() const
{
    return std::unique_ptr<BurstySource>(new BurstySource(*this));
}

// --------------------------------------------------------- ReplaySource

ReplaySource::ReplaySource(std::string path) : _path(std::move(path))
{
    open();
}

void
ReplaySource::open()
{
    _in.open(_path);
    fatalIf(!_in, "ReplaySource: cannot open '" + _path + "'");
}

void
ReplaySource::rowError(const std::string &what) const
{
    fatal("ReplaySource '" + _path + "' line " + std::to_string(_line) +
          ": " + what);
}

bool
ReplaySource::next(Job &out)
{
    std::string line;
    while (!_done && std::getline(_in, line)) {
        // A final line without a trailing newline sets eofbit, under
        // which tellg() would fail and poison the stream; clearing it
        // first keeps _pos a real offset, so the terminated and
        // unterminated spellings of the same log replay (and clone)
        // identically.
        if (_in.eof())
            _in.clear();
        _pos = _in.tellg();
        ++_line;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty() || line.front() == '#')
            continue;

        std::vector<std::string> fields;
        {
            std::istringstream in(line);
            std::string cell;
            while (std::getline(in, cell, ','))
                fields.push_back(cell);
        }
        if (fields.size() < 2 || fields.size() > 3)
            rowError("expected 'arrival,size[,class]', got '" + line +
                     "'");

        double values[2];
        bool numeric = true;
        for (int i = 0; i < 2 && numeric; ++i)
            numeric = tryParseCsvDouble(fields[i], values[i]);
        if (!numeric) {
            // The first non-comment non-numeric row is a header;
            // anywhere else it is a malformed row.
            if (!_headerChecked) {
                _headerChecked = true;
                continue;
            }
            rowError("non-numeric field in '" + line + "'");
        }
        _headerChecked = true;

        const double arrival = values[0];
        const double size = values[1];
        if (!std::isfinite(arrival) || !std::isfinite(size))
            rowError("non-finite arrival or size");
        if (arrival < 0.0 || size < 0.0)
            rowError("negative arrival or size");
        if (arrival < _lastArrival)
            rowError("out-of-order arrival " + fields[0] +
                     " (previous " + std::to_string(_lastArrival) + ")");

        out = Job{};
        out.arrival = arrival;
        out.size = size;
        if (fields.size() == 3) {
            double cls = 0.0;
            if (!tryParseCsvDouble(fields[2], cls) || cls < 0.0 ||
                cls > 1e9 || cls != static_cast<double>(
                                        static_cast<int>(cls)))
                rowError("bad class '" + fields[2] + "'");
            out.classId = static_cast<int>(cls);
        }
        _lastArrival = arrival;
        ++_rows;
        return true;
    }
    const bool first_exhaustion = !_done;
    _done = true;
    if (first_exhaustion && _rows == 0) {
        fatal("ReplaySource '" + _path +
              "': no data rows (the file is empty, comment-only, or "
              "header-only); expected 'arrival,size[,class]' rows");
    }
    return false;
}

void
ReplaySource::reset(std::uint64_t)
{
    _in.close();
    _in.clear();
    _pos = 0;
    _line = 0;
    _rows = 0;
    _lastArrival = 0.0;
    _headerChecked = false;
    _done = false;
    open();
}

std::unique_ptr<JobSource>
ReplaySource::clone() const
{
    auto copy = std::make_unique<ReplaySource>(_path);
    // O(1) continuation: seek straight to the first unread byte. _pos
    // is always a real offset (next() clears eofbit before tellg), so
    // an unterminated final row needs no special case here.
    if (_done) {
        copy->_done = true;
    } else if (_pos != std::streampos(0)) {
        copy->_in.seekg(_pos);
        fatalIf(!copy->_in,
                "ReplaySource: cannot seek in '" + _path + "'");
    }
    copy->_pos = _pos;
    copy->_line = _line;
    copy->_rows = _rows;
    copy->_lastArrival = _lastArrival;
    copy->_headerChecked = _headerChecked;
    return copy;
}

// --------------------------------------------------------- VectorSource

VectorSource::VectorSource(std::vector<Job> jobs)
    : _owned(std::make_shared<const std::vector<Job>>(std::move(jobs)))
{
    _jobs = _owned.get();
}

VectorSource
VectorSource::view(const std::vector<Job> &jobs)
{
    VectorSource source;
    source._jobs = &jobs;
    return source;
}

bool
VectorSource::next(Job &out)
{
    if (_next >= _jobs->size())
        return false;
    out = (*_jobs)[_next++];
    return true;
}

void
VectorSource::reset(std::uint64_t)
{
    _next = 0;
}

std::unique_ptr<JobSource>
VectorSource::clone() const
{
    return std::unique_ptr<VectorSource>(new VectorSource(*this));
}

// ---------------------------------------------------------- combinators

namespace {

class MergeSource final : public JobSource
{
  public:
    explicit MergeSource(std::vector<std::unique_ptr<JobSource>> sources)
        : _sources(std::move(sources)), _pending(_sources.size()),
          _ready(_sources.size(), 0)
    {
        fatalIf(_sources.empty(), "merge: needs at least one source");
        for (const auto &source : _sources)
            fatalIf(!source, "merge: null source");
    }

    bool next(Job &out) override
    {
        if (!_primed) {
            for (std::size_t i = 0; i < _sources.size(); ++i)
                _ready[i] = _sources[i]->next(_pending[i]) ? 1 : 0;
            _primed = true;
        }
        // Lowest index wins ties: strict < keeps the scan stable.
        std::size_t best = _sources.size();
        for (std::size_t i = 0; i < _sources.size(); ++i) {
            if (_ready[i] && (best == _sources.size() ||
                              _pending[i].arrival <
                                  _pending[best].arrival))
                best = i;
        }
        if (best == _sources.size())
            return false;
        out = _pending[best];
        _ready[best] = _sources[best]->next(_pending[best]) ? 1 : 0;
        return true;
    }

    void reset(std::uint64_t seed) override
    {
        for (std::size_t i = 0; i < _sources.size(); ++i)
            _sources[i]->reset(mixSeed(seed + i));
        _primed = false;
    }

    std::unique_ptr<JobSource> clone() const override
    {
        std::vector<std::unique_ptr<JobSource>> copies;
        copies.reserve(_sources.size());
        for (const auto &source : _sources)
            copies.push_back(source->clone());
        auto copy = std::make_unique<MergeSource>(std::move(copies));
        copy->_pending = _pending;
        copy->_ready = _ready;
        copy->_primed = _primed;
        return copy;
    }

  private:
    std::vector<std::unique_ptr<JobSource>> _sources;
    std::vector<Job> _pending;  ///< One-job lookahead per source.
    std::vector<char> _ready;
    bool _primed = false;
};

class UntilSource final : public JobSource
{
  public:
    UntilSource(std::unique_ptr<JobSource> source, double end_time)
        : _source(std::move(source)), _endTime(end_time)
    {
        fatalIf(!_source, "until: null source");
        fatalIf(!(end_time > 0.0), "until: end time must be positive");
    }

    bool next(Job &out) override
    {
        if (_done || !_source->next(out) || out.arrival >= _endTime) {
            _done = true;
            return false;
        }
        return true;
    }

    void reset(std::uint64_t seed) override
    {
        _source->reset(seed);
        _done = false;
    }

    std::unique_ptr<JobSource> clone() const override
    {
        auto copy =
            std::make_unique<UntilSource>(_source->clone(), _endTime);
        copy->_done = _done;
        return copy;
    }

  private:
    std::unique_ptr<JobSource> _source;
    double _endTime;
    bool _done = false;
};

} // namespace

std::unique_ptr<JobSource>
merge(std::vector<std::unique_ptr<JobSource>> sources)
{
    return std::make_unique<MergeSource>(std::move(sources));
}

std::unique_ptr<JobSource>
until(std::unique_ptr<JobSource> source, double end_time)
{
    return std::make_unique<UntilSource>(std::move(source), end_time);
}

// ------------------------------------------------------------- registry

Registry<JobSourceFactory> &
jobSourceRegistry()
{
    static Registry<JobSourceFactory> registry = [] {
        Registry<JobSourceFactory> r("job source");
        r.add("trace", [](const JobSourceConfig &config) {
            fatalIf(config.trace.empty(),
                    "job source 'trace': needs a non-empty trace");
            return std::make_unique<TraceDrivenSource>(
                config.workload, config.trace, config.seed,
                config.rateScale);
        });
        r.add("stationary", [](const JobSourceConfig &config) {
            return std::make_unique<StationarySource>(
                config.workload, config.utilization, config.seed,
                config.rateScale);
        });
        r.add("bursty", [](const JobSourceConfig &config) {
            return std::make_unique<BurstySource>(
                config.workload, config.utilization,
                config.burstRateFactor, config.burstMeanLength,
                config.burstMeanGap, config.seed, config.rateScale);
        });
        r.add("replay", [](const JobSourceConfig &config) {
            fatalIf(config.replayPath.empty(),
                    "job source 'replay': needs a CSV path "
                    "(ScenarioSpec::replayPath / --replay)");
            return std::make_unique<ReplaySource>(config.replayPath);
        });
        return r;
    }();
    return registry;
}

std::unique_ptr<JobSource>
makeJobSource(const std::string &name, const JobSourceConfig &config)
{
    return jobSourceRegistry().get(name)(config);
}

} // namespace sleepscale
