/**
 * @file
 * gem5-style status/error reporting: panic, fatal, warn, inform.
 *
 * `panic()` is for internal invariant violations (aborts); `fatal()` is
 * for user/configuration errors (clean exit(1)); `warn()`/`inform()`
 * report conditions without stopping the simulation.
 */

#ifndef G5P_BASE_LOGGING_HH
#define G5P_BASE_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace g5p
{

/** Severity classes understood by the logger. */
enum class LogLevel { Panic, Fatal, Warn, Inform, Debug };

/** Process-wide logger: every message goes to stderr. */
class Logger
{
  public:
    /** Emit one message at @p level, prefixed with the level. */
    static void log(LogLevel level, const std::string &msg);
};

namespace detail
{

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** printf-style formatting into a std::string. */
std::string vformat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace detail

} // namespace g5p

/** Internal invariant violated: print and abort. */
#define g5p_panic(...) \
    ::g5p::detail::panicImpl(__FILE__, __LINE__, \
                             ::g5p::detail::vformat(__VA_ARGS__))

/** User-level error: print and exit(1). */
#define g5p_fatal(...) \
    ::g5p::detail::fatalImpl(__FILE__, __LINE__, \
                             ::g5p::detail::vformat(__VA_ARGS__))

/** Condition that might indicate a problem but allows progress. */
#define g5p_warn(...) \
    ::g5p::Logger::log(::g5p::LogLevel::Warn, \
                       ::g5p::detail::vformat(__VA_ARGS__))

/** Status message with no error connotation. */
#define g5p_inform(...) \
    ::g5p::Logger::log(::g5p::LogLevel::Inform, \
                       ::g5p::detail::vformat(__VA_ARGS__))

/** Assert-like helper that panics with a formatted message. */
#define g5p_assert(cond, ...) \
    do { \
        if (!(cond)) \
            g5p_panic("assertion failed: %s: %s", #cond, \
                      ::g5p::detail::vformat(__VA_ARGS__).c_str()); \
    } while (0)

#endif // G5P_BASE_LOGGING_HH
