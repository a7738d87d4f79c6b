#include "common/logging.h"

#include <cstdio>
#include <mutex>

namespace spt {

namespace {

// Concurrent Simulators (common/parallel.h sweeps) log from worker
// threads: every message is emitted as one fwrite under a mutex so
// lines never interleave.
std::mutex g_stderr_mutex;

void
emitLine(const char *prefix, const std::string &msg)
{
    std::string line;
    line.reserve(msg.size() + 8);
    line += prefix;
    line += msg;
    line += '\n';
    std::lock_guard<std::mutex> lock(g_stderr_mutex);
    std::fwrite(line.data(), 1, line.size(), stderr);
}

} // namespace

namespace detail {

std::string
formatLocation(const char *file, int line)
{
    std::ostringstream os;
    os << file << ":" << line << ": ";
    return os.str();
}

} // namespace detail

void
warn(const std::string &msg)
{
    emitLine("warn: ", msg);
}

void
report(const std::string &msg)
{
    emitLine("", msg);
}

} // namespace spt
