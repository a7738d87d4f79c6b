/**
 * @file
 * Simulation status and error reporting, in the spirit of gem5's
 * logging.hh: fatal() for user errors, panic() for simulator bugs,
 * warn()/inform() for status messages.
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

/** Severity ladder for stderr lines. Messages at or above the
 *  current level are shown; kDebug is the chattiest setting. */
enum class LogLevel {
    kDebug = 0,
    kInfo = 1,
    kWarn = 2,
};

/** Parses "debug"/"info"/"warn" (SPT_FATAL on anything else). */
LogLevel parseLogLevel(const std::string &name);

/** Current minimum severity. Initialised lazily from SPT_LOG_LEVEL
 *  (default kInfo; an unparseable env value warns once and keeps
 *  the default rather than aborting a long sweep over a typo). */
LogLevel logLevel();
void setLogLevel(LogLevel level);

/** Whether stderr lines carry a "[12.345678] " monotonic-seconds
 *  prefix (seconds since process start, steady clock). Initialised
 *  lazily from SPT_LOG_TS (any non-empty value other than "0"
 *  enables it). Timestamps never reach stdout or report artifacts,
 *  so determinism gates are unaffected. */
bool logTimestamps();
void setLogTimestamps(bool enabled);

/** Monotonic seconds since process start (the value the timestamp
 *  prefix prints). */
double logMonotonicSeconds();

/** Emits a warning to stderr (does not stop the simulation).
 *  Thread-safe: the whole line is written in one call, so messages
 *  from concurrent Simulators never interleave mid-line. */
void warn(const std::string &msg);

/** Emits an informational message to stderr (thread-safe, see
 *  warn()). Shown only when verbose() and logLevel() <= kInfo. */
void inform(const std::string &msg);

/** Emits a debug message to stderr; shown only when verbose() and
 *  logLevel() == kDebug. */
void debug(const std::string &msg);

/** Emits an operator-facing status line to stderr unconditionally
 *  (no severity prefix, not gated by verbose()/logLevel()). The
 *  `[cache]` / `[sweep]` lines that CI greps out of stderr go
 *  through here, so quieting the log level can never break those
 *  gates. Same single-write thread-safety contract as warn(). */
void report(const std::string &msg);

/** Globally enables/disables inform() output (benches silence it).
 *  The flag is atomic and may be read from any thread, but callers
 *  should set it before spawning sweep workers. */
void setVerbose(bool verbose);
bool verbose();

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
