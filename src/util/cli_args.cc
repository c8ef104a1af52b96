#include "util/cli_args.hh"

#include <cmath>
#include <cstdlib>

#include "util/error.hh"

namespace sleepscale {

CliArgs::CliArgs(int argc, const char *const *argv,
                 const std::set<std::string> &known)
{
    int i = 1;
    if (i < argc && argv[i][0] != '-') {
        _command = argv[i];
        ++i;
    }
    for (; i < argc; ++i) {
        const std::string word = argv[i];
        if (word.rfind("--", 0) != 0)
            fatal("CliArgs: expected --option, got '" + word + "'");
        const std::string key = word.substr(2);
        if (known.find(key) == known.end())
            fatal("CliArgs: unknown option '--" + key + "'");
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
            _values[key] = argv[i + 1];
            _bare.erase(key); // the last occurrence decides
            ++i;
        } else {
            _values[key] = "true"; // bare flag
            _bare.insert(key);
        }
    }
}

bool
CliArgs::has(const std::string &key) const
{
    return _values.find(key) != _values.end();
}

std::string
CliArgs::get(const std::string &key, const std::string &fallback) const
{
    const auto it = _values.find(key);
    return it == _values.end() ? fallback : it->second;
}

std::string
CliArgs::getPath(const std::string &key, const std::string &fallback) const
{
    return _bare.count(key) != 0 ? fallback : get(key, fallback);
}

namespace {

/** `text` as one finite number; fatal() naming --key. */
double
parseDouble(const std::string &key, const std::string &text)
{
    try {
        std::size_t used = 0;
        const double value = std::stod(text, &used);
        // The whole cell must parse: "0.5x" is a typo, not 0.5. And
        // "nan"/"inf" parse cleanly but sail through every downstream
        // range check (NaN compares false against any bound), so
        // non-finite values are rejected here, at the boundary.
        fatalIf(used != text.size() || !std::isfinite(value),
                "CliArgs: option '--" + key +
                    "' expects a finite number, got '" + text + "'");
        return value;
    } catch (const ConfigError &) {
        throw;
    } catch (const std::exception &) {
        fatal("CliArgs: option '--" + key + "' expects a number, got '" +
              text + "'");
    }
}

} // namespace

double
CliArgs::getDouble(const std::string &key, double fallback) const
{
    const auto it = _values.find(key);
    return it == _values.end() ? fallback : parseDouble(key, it->second);
}

unsigned long
CliArgs::parseUnsigned(const std::string &key, const std::string &text,
                       unsigned long max)
{
    try {
        std::size_t used = 0;
        const unsigned long value = std::stoul(text, &used, 10);
        // The whole cell must parse: "5x" is a typo, not 5.
        fatalIf(used != text.size(),
                "CliArgs: option '--" + key +
                    "' expects an integer, got '" + text + "'");
        // stoul negates a leading '-' instead of refusing it.
        fatalIf(text.find('-') != std::string::npos,
                "CliArgs: option '--" + key +
                    "' expects a non-negative integer");
        fatalIf(value > max, "CliArgs: option '--" + key +
                                 "' expects an integer at most " +
                                 std::to_string(max) + ", got '" + text +
                                 "'");
        return value;
    } catch (const ConfigError &) {
        throw;
    } catch (const std::exception &) {
        fatal("CliArgs: option '--" + key +
              "' expects an integer, got '" + text + "'");
    }
}

std::vector<std::string>
CliArgs::getList(const std::string &key) const
{
    const std::string text = get(key, "");
    std::vector<std::string> items;
    if (text.empty())
        return items;
    // An empty item is a typo ("xeon,,atom"), not a shorter list.
    std::size_t start = 0;
    for (;;) {
        const std::size_t comma = text.find(',', start);
        items.push_back(text.substr(start, comma - start));
        if (items.back().empty())
            fatal("CliArgs: option '--" + key + "' has an empty item in '" +
                  text + "'");
        if (comma == std::string::npos)
            return items;
        start = comma + 1;
    }
}

std::vector<double>
CliArgs::getDoubleList(const std::string &key) const
{
    std::vector<double> values;
    for (const std::string &item : getList(key))
        values.push_back(parseDouble(key, item));
    return values;
}

} // namespace sleepscale
