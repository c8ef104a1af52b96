/**
 * @file
 * Error-reporting helpers for the sleepscale library.
 *
 * Follows the gem5 fatal/panic discipline: fatal() is for conditions caused
 * by the caller (bad configuration, invalid arguments) and throws
 * ConfigError; panic() is for violated internal invariants (library bugs)
 * and throws InternalError. Neither is used on hot simulation paths.
 */

#ifndef SLEEPSCALE_UTIL_ERROR_HH
#define SLEEPSCALE_UTIL_ERROR_HH

#include <stdexcept>
#include <string>

namespace sleepscale {

/** Exception thrown on user-caused errors (bad configuration or inputs). */
class ConfigError : public std::invalid_argument
{
  public:
    explicit ConfigError(const std::string &what_arg)
        : std::invalid_argument(what_arg)
    {}
};

/** Exception thrown when a library-internal invariant is violated. */
class InternalError : public std::logic_error
{
  public:
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
 * Check a user-supplied condition, raising ConfigError when it fails.
 *
 * @param ok Condition that must hold for the configuration to be valid.
 * @param msg Message used if the condition fails.
 */
inline void
fatalIf(bool bad, const std::string &msg)
{
    if (bad)
        fatal(msg);
}

} // namespace sleepscale

#endif // SLEEPSCALE_UTIL_ERROR_HH
