/**
 * @file
 * Error-reporting helpers for the sleepscale library.
 *
 * Follows the gem5 fatal/panic discipline: fatal() is for conditions caused
 * by the caller (bad configuration, invalid arguments) and throws
 * ConfigError; panic() is for violated internal invariants (library bugs)
 * and throws InternalError.
 *
 * fatalIf() guards hot paths too (every job a ServerSim admits, every
 * job of a log the search replays), so a passing check costs one
 * branch: its message is a string_view, and the std::string is built
 * only when the check fails. A message computed with `+` or
 * std::to_string is built before any call, so checks inside per-item
 * loops that need one are written `if (bad) fatal(...)` instead.
 */

#ifndef SLEEPSCALE_UTIL_ERROR_HH
#define SLEEPSCALE_UTIL_ERROR_HH

#include <stdexcept>
#include <string>
#include <string_view>

namespace sleepscale {

/** Exception thrown on user-caused errors (bad configuration or inputs). */
class ConfigError : public std::invalid_argument
{
  public:
    /** @param what_arg The message, naming the offending input. */
    explicit ConfigError(const std::string &what_arg)
        : std::invalid_argument(what_arg)
    {}
};

/** Exception thrown when a library-internal invariant is violated. */
class InternalError : public std::logic_error
{
  public:
    /** @param what_arg The message, naming the broken invariant. */
    explicit InternalError(const std::string &what_arg)
        : std::logic_error(what_arg)
    {}
};

/**
 * Report a user-caused error. Never returns.
 *
 * @param msg Description of what the caller did wrong and how to fix it.
 */
[[noreturn]] void fatal(const std::string &msg);

/**
 * Re-raise a caught user-caused error with the context it arose in
 * (e.g. "ScenarioSpec 'fig9'") in front of its message. Never returns.
 */
[[noreturn]] void fatalIn(const std::string &context,
                          const ConfigError &error);

/**
 * Report a violated internal invariant (a sleepscale bug). Never returns.
 *
 * @param msg Description of the broken invariant.
 */
[[noreturn]] void panic(const std::string &msg);

/**
 * Check a user-supplied condition, raising ConfigError when it holds.
 *
 * @param bad Condition under which the configuration is invalid.
 * @param msg Message used if `bad` is true; only then copied into a
 *        std::string.
 */
inline void
fatalIf(bool bad, std::string_view msg)
{
    if (bad)
        fatal(std::string(msg));
}

} // namespace sleepscale

#endif // SLEEPSCALE_UTIL_ERROR_HH
