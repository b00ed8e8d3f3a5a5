/**
 * @file
 * Error-reporting and status-message helpers.
 *
 * Follows the gem5 convention: panic() for internal invariant violations
 * (simulator bugs), fatal() for user-caused errors the simulation cannot
 * continue from.
 */

#ifndef LERGAN_COMMON_LOGGING_HH
#define LERGAN_COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace lergan {

/** Severity of a log message. */
enum class LogLevel { Fatal, Panic };

namespace detail {

/**
 * Emit a formatted message; for Fatal exits with code 1, for Panic aborts.
 *
 * @param level Message severity.
 * @param file  Source file of the call site.
 * @param line  Source line of the call site.
 * @param msg   Fully formatted message text.
 */
[[noreturn]] void terminate(LogLevel level, const char *file, int line,
                            const std::string &msg);

/** Concatenate a parameter pack into one string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

} // namespace detail

} // namespace lergan

/** Internal invariant violated: print message and abort. */
#define LERGAN_PANIC(...)                                                    \
    ::lergan::detail::terminate(::lergan::LogLevel::Panic, __FILE__,         \
                                __LINE__, ::lergan::detail::concat(__VA_ARGS__))

/** User error the run cannot continue from: print message and exit(1). */
#define LERGAN_FATAL(...)                                                    \
    ::lergan::detail::terminate(::lergan::LogLevel::Fatal, __FILE__,         \
                                __LINE__, ::lergan::detail::concat(__VA_ARGS__))

/** Checked invariant with message; active in all build types. */
#define LERGAN_ASSERT(cond, ...)                                             \
    do {                                                                     \
        if (!(cond)) {                                                       \
            LERGAN_PANIC("assertion failed: " #cond " — ",                   \
                         ::lergan::detail::concat(__VA_ARGS__));             \
        }                                                                    \
    } while (false)

#endif // LERGAN_COMMON_LOGGING_HH
