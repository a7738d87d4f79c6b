/**
 * @file
 * Simulation status and error reporting, in the spirit of gem5's
 * logging.hh: fatal() for user errors, panic() for simulator bugs,
 * warn() and report() for stderr lines.
 */

#ifndef SPT_COMMON_LOGGING_H
#define SPT_COMMON_LOGGING_H

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace spt {

/** Thrown when the simulation cannot continue due to a user error
 *  (bad configuration, malformed assembly, invalid arguments). */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg) {}
};

/** Thrown on conditions that indicate a simulator bug. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg) {}
};

namespace detail {

std::string formatLocation(const char *file, int line);

} // namespace detail

/** Emits a "warn: " line to stderr (does not stop the simulation).
 *  Thread-safe: the whole line is written in one call, so messages
 *  from concurrent Simulators never interleave mid-line. */
void warn(const std::string &msg);

/** Emits an operator-facing status line to stderr with no prefix:
 *  the `[cache]` / `[sweep]` lines that CI greps out of stderr. Same
 *  single-write thread-safety contract as warn(). */
void report(const std::string &msg);

} // namespace spt

/** User-error abort: throws spt::FatalError with location info. */
#define SPT_FATAL(msg)                                                      \
    do {                                                                    \
        std::ostringstream os_;                                             \
        os_ << ::spt::detail::formatLocation(__FILE__, __LINE__)            \
            << "fatal: " << msg;                                            \
        throw ::spt::FatalError(os_.str());                                 \
    } while (0)

/** Simulator-bug abort: throws spt::PanicError with location info. */
#define SPT_PANIC(msg)                                                      \
    do {                                                                    \
        std::ostringstream os_;                                             \
        os_ << ::spt::detail::formatLocation(__FILE__, __LINE__)            \
            << "panic: " << msg;                                            \
        throw ::spt::PanicError(os_.str());                                 \
    } while (0)

/** Invariant check that survives in release builds. */
#define SPT_ASSERT(cond, msg)                                               \
    do {                                                                    \
        if (!(cond))                                                        \
            SPT_PANIC("assertion failed: " #cond ": " << msg);              \
    } while (0)

#endif // SPT_COMMON_LOGGING_H
