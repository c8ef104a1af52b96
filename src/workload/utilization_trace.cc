#include "workload/utilization_trace.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <numbers>
#include <sstream>

#include "util/csv.hh"
#include "util/error.hh"
#include "util/rng.hh"

namespace sleepscale {

namespace {

constexpr double secondsPerMinute = 60.0;
constexpr unsigned minutesPerDay = 24 * 60;

} // namespace

UtilizationTrace::UtilizationTrace(std::string name,
                                   std::vector<double> per_minute)
    : _name(std::move(name)), _perMinute(std::move(per_minute))
{
    for (double u : _perMinute) {
        fatalIf(!(u >= 0.0 && u < 1.0),
                "UtilizationTrace: utilization must be in [0, 1)");
    }
}

double
UtilizationTrace::at(std::size_t i) const
{
    fatalIf(i >= _perMinute.size(), "UtilizationTrace::at: out of range");
    return _perMinute[i];
}

double
UtilizationTrace::duration() const
{
    return static_cast<double>(_perMinute.size()) * secondsPerMinute;
}

double
UtilizationTrace::meanUtilization() const
{
    if (_perMinute.empty())
        return 0.0;
    double sum = 0.0;
    for (double u : _perMinute)
        sum += u;
    return sum / static_cast<double>(_perMinute.size());
}

double
UtilizationTrace::peakUtilization() const
{
    double peak = 0.0;
    for (double u : _perMinute)
        peak = std::max(peak, u);
    return peak;
}

UtilizationTrace
UtilizationTrace::slice(std::size_t first, std::size_t last) const
{
    fatalIf(first >= last || last > _perMinute.size(),
            "UtilizationTrace::slice: invalid range");
    return UtilizationTrace(
        _name,
        std::vector<double>(_perMinute.begin() +
                                static_cast<std::ptrdiff_t>(first),
                            _perMinute.begin() +
                                static_cast<std::ptrdiff_t>(last)));
}

UtilizationTrace
UtilizationTrace::dailyWindow(unsigned start_hour, unsigned end_hour) const
{
    fatalIf(start_hour >= end_hour || end_hour > 24,
            "UtilizationTrace::dailyWindow: invalid hour range");
    std::vector<double> window;
    for (std::size_t i = 0; i < _perMinute.size(); ++i) {
        const auto minute_of_day =
            static_cast<unsigned>(i % minutesPerDay);
        const unsigned hour = minute_of_day / 60;
        if (hour >= start_hour && hour < end_hour)
            window.push_back(_perMinute[i]);
    }
    fatalIf(window.empty(),
            "UtilizationTrace::dailyWindow: window selects no minutes");
    return UtilizationTrace(_name + " (window)", std::move(window));
}

void
UtilizationTrace::save(const std::string &path) const
{
    CsvTable table;
    table.headers = {"minute", "utilization"};
    for (std::size_t i = 0; i < _perMinute.size(); ++i)
        table.addRow({static_cast<double>(i), _perMinute[i]});
    writeCsvFile(path, table);
}

UtilizationTrace
UtilizationTrace::load(const std::string &path)
{
    std::ifstream in(path);
    fatalIf(!in, "UtilizationTrace::load: cannot open '" + path + "'");

    auto lineError = [&path](std::size_t line, const std::string &what)
        -> std::string {
        return "UtilizationTrace::load '" + path + "' line " +
               std::to_string(line) + ": " + what;
    };

    std::string line;
    std::size_t line_no = 0;
    const auto chopCr = [](std::string &text) {
        if (!text.empty() && text.back() == '\r')
            text.pop_back();
    };

    // Find the header, skipping blank and '#' comment lines. A file
    // with no header at all — empty or comment-only — gets its own
    // message instead of a confusing "no 'utilization' column in the
    // header '# ...'".
    bool have_header = false;
    while (std::getline(in, line)) {
        ++line_no;
        chopCr(line);
        if (line.empty() || line.front() == '#')
            continue;
        have_header = true;
        break;
    }
    fatalIf(!have_header,
            "UtilizationTrace::load: '" + path +
                "' contains no header row (the file is empty or "
                "comment-only); expected a CSV with a 'utilization' "
                "column");
    std::size_t util_col = SIZE_MAX;
    std::size_t columns = 0;
    {
        std::istringstream header(line);
        std::string cell;
        while (std::getline(header, cell, ',')) {
            if (cell == "utilization")
                util_col = columns;
            ++columns;
        }
    }
    fatalIf(util_col == SIZE_MAX,
            lineError(line_no, "no 'utilization' column in header '" +
                                   line + "'"));

    std::vector<double> values;
    double last_minute = -1.0;
    while (std::getline(in, line)) {
        ++line_no;
        chopCr(line);
        if (line.empty() || line.front() == '#')
            continue;
        std::istringstream fields(line);
        std::string cell;
        std::vector<double> row;
        while (std::getline(fields, cell, ',')) {
            double value = 0.0;
            if (!tryParseCsvDouble(cell, value))
                fatal(lineError(line_no,
                                "non-numeric cell '" + cell + "'"));
            row.push_back(value);
        }
        if (row.size() != columns)
            fatal(lineError(line_no, "expected " + std::to_string(columns) +
                                         " cells, got " +
                                         std::to_string(row.size())));
        const double u = row[util_col];
        if (std::isnan(u))
            fatal(lineError(line_no, "NaN utilization"));
        if (u < 0.0 || u >= 1.0)
            fatal(lineError(line_no, "utilization " + std::to_string(u) +
                                         " outside [0, 1)"));
        // Traces saved by save() carry a minute column; when present it
        // must be strictly increasing (an out-of-order or duplicated
        // row is a corrupt trace, not data).
        if (util_col != 0 && columns >= 2) {
            const double minute = row[0];
            if (std::isnan(minute) || minute < 0.0)
                fatal(lineError(line_no, "bad minute index"));
            if (minute <= last_minute)
                fatal(lineError(line_no, "out-of-order minute " +
                                             std::to_string(minute) +
                                             " (previous " +
                                             std::to_string(last_minute) +
                                             ")"));
            last_minute = minute;
        }
        values.push_back(u);
    }
    fatalIf(values.empty(),
            "UtilizationTrace::load: '" + path +
                "' has a header but no data rows; a trace needs at "
                "least one per-minute utilization value");
    return UtilizationTrace(path, std::move(values));
}

namespace {

/**
 * Smooth diurnal shape in [0, 1]: minimum around 4 AM, peak around 3 PM.
 */
double
diurnalShape(unsigned minute_of_day)
{
    const double hours = static_cast<double>(minute_of_day) / 60.0;
    const double phase = (hours - 9.0) / 24.0 * 2.0 * std::numbers::pi;
    return 0.5 * (1.0 + std::sin(phase));
}

} // namespace

UtilizationTrace
synthFileServerTrace(unsigned days, std::uint64_t seed)
{
    fatalIf(days == 0, "synthFileServerTrace: need at least one day");
    Rng rng(seed);
    std::vector<double> trace;
    trace.reserve(static_cast<std::size_t>(days) * minutesPerDay);

    double noise = 0.0;
    for (unsigned day = 0; day < days; ++day) {
        for (unsigned m = 0; m < minutesPerDay; ++m) {
            // AR(1) fluctuation plus rare small access bursts.
            noise = 0.92 * noise + rng.normal(0.0, 0.008);
            double u = 0.05 + 0.09 * diurnalShape(m) + noise;
            if (rng.uniform() < 0.004)
                u += rng.uniform(0.02, 0.06);
            trace.push_back(std::clamp(u, 0.02, 0.20));
        }
    }
    return UtilizationTrace("file-server", std::move(trace));
}

UtilizationTrace
synthEmailStoreTrace(unsigned days, std::uint64_t seed)
{
    fatalIf(days == 0, "synthEmailStoreTrace: need at least one day");
    Rng rng(seed);
    std::vector<double> trace;
    trace.reserve(static_cast<std::size_t>(days) * minutesPerDay);

    double noise = 0.0;
    unsigned burst_left = 0;
    double burst_level = 0.0;
    for (unsigned day = 0; day < days; ++day) {
        for (unsigned m = 0; m < minutesPerDay; ++m) {
            noise = 0.90 * noise + rng.normal(0.0, 0.02);
            double u = 0.15 + 0.25 * diurnalShape(m) + noise;

            const unsigned hour = m / 60;
            const bool backup = hour >= 20 || hour < 2;
            if (backup) {
                // Nightly backup/maintenance window (8 PM - 2 AM):
                // sustained surges toward 0.9, spiky rather than smooth.
                u = 0.55 + 0.3 * rng.uniform();
                if (rng.uniform() < 0.3)
                    u = 0.82 + 0.08 * rng.uniform();
            } else {
                // Daytime mail bursts: abrupt multi-minute episodes that
                // jump well above the diurnal baseline — the behaviour
                // that stresses causal utilization predictors.
                if (burst_left == 0 && rng.uniform() < 0.015) {
                    burst_left =
                        2 + static_cast<unsigned>(rng.uniformInt(7));
                    burst_level = rng.uniform(0.5, 0.78);
                }
                if (burst_left > 0) {
                    --burst_left;
                    u = burst_level + rng.normal(0.0, 0.02);
                }
            }
            trace.push_back(std::clamp(u, 0.05, 0.92));
        }
    }
    return UtilizationTrace("email-store", std::move(trace));
}

} // namespace sleepscale
