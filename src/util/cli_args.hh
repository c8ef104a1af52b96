/**
 * @file
 * Minimal command-line argument parsing for the sleepscale tool.
 *
 * Supports `--key value` and `--flag` options after an optional
 * subcommand word. Unknown keys are rejected against a declared option
 * set so typos fail loudly instead of silently using defaults.
 */

#ifndef SLEEPSCALE_UTIL_CLI_ARGS_HH
#define SLEEPSCALE_UTIL_CLI_ARGS_HH

#include <limits>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

namespace sleepscale {

/** Parsed command line: one subcommand plus key/value options. */
class CliArgs
{
  public:
    /**
     * Parse argv.
     *
     * @param argc Argument count from main().
     * @param argv Argument vector from main().
     * @param known Declared option names (without the leading "--");
     *              anything else is a fatal() error.
     */
    CliArgs(int argc, const char *const *argv,
            const std::set<std::string> &known);

    /** The first non-option word ("" when absent). */
    const std::string &command() const { return _command; }

    /** Whether an option was given. */
    bool has(const std::string &key) const;

    /** String option with default. */
    std::string get(const std::string &key,
                    const std::string &fallback) const;

    /** Double option with default; fatal() unless the whole value is
     * one finite number. */
    double getDouble(const std::string &key, double fallback) const;

    /**
     * Unsigned option with default, as T; fatal() unless the whole
     * value is a non-negative integer that fits in T (so `--T
     * 4294967301` fails instead of wrapping to 5).
     */
    template <class T = unsigned long>
    T getUnsigned(const std::string &key,
                  std::type_identity_t<T> fallback) const
    {
        const auto it = _values.find(key);
        return it == _values.end()
                   ? fallback
                   : static_cast<T>(parseUnsigned(
                         key, it->second, std::numeric_limits<T>::max()));
    }

    /** Comma-separated list option; fatal() on an empty item (a
     * leading, doubled or trailing comma). An absent or empty option
     * is an empty list. */
    std::vector<std::string> getList(const std::string &key) const;

    /** getList() with getDouble()'s rules applied to every item. */
    std::vector<double> getDoubleList(const std::string &key) const;

    /** getList() with getUnsigned<T>()'s rules applied to every item. */
    template <class T = unsigned long>
    std::vector<T> getUnsignedList(const std::string &key) const
    {
        std::vector<T> values;
        for (const std::string &item : getList(key))
            values.push_back(static_cast<T>(
                parseUnsigned(key, item, std::numeric_limits<T>::max())));
        return values;
    }

  private:
    std::string _command;
    std::map<std::string, std::string> _values;

    /** `text` as an integer in [0, max]; fatal() naming --key. */
    static unsigned long parseUnsigned(const std::string &key,
                                       const std::string &text,
                                       unsigned long max);
};

} // namespace sleepscale

#endif // SLEEPSCALE_UTIL_CLI_ARGS_HH
