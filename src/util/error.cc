#include "util/error.hh"

#include <string_view>

namespace sleepscale {

namespace {

constexpr std::string_view fatalPrefix = "sleepscale: fatal: ";

} // namespace

void
fatal(const std::string &msg)
{
    throw ConfigError(std::string(fatalPrefix) + msg);
}

void
fatalIn(const std::string &context, const ConfigError &error)
{
    std::string_view msg = error.what();
    if (msg.starts_with(fatalPrefix))
        msg.remove_prefix(fatalPrefix.size());
    fatal(context + ": " + std::string(msg));
}

void
panic(const std::string &msg)
{
    throw InternalError("sleepscale: panic: " + msg);
}

} // namespace sleepscale
