#include "common/cli.h"

#include <cctype>
#include <cstdio>
#include <exception>

#include "common/logging.h"

namespace spt {

uint64_t
parseUnsigned(const std::string &text, const char *what,
              uint64_t max)
{
    if (text.empty())
        SPT_FATAL(what << ": empty number");
    uint64_t value = 0;
    for (const char c : text) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            SPT_FATAL(what << ": not a number: '" << text << "'");
        const uint64_t digit = static_cast<uint64_t>(c - '0');
        if (value > (UINT64_MAX - digit) / 10)
            SPT_FATAL(what << ": out of range: '" << text << "'");
        value = value * 10 + digit;
    }
    if (value > max)
        SPT_FATAL(what << ": " << value << " exceeds maximum "
                       << max);
    return value;
}

int
toolMain(const char *tool, const std::function<int()> &body)
{
    try {
        return body();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s: %s\n", tool, e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: internal error: %s\n", tool,
                     e.what());
        return 70; // EX_SOFTWARE
    }
}

} // namespace spt
