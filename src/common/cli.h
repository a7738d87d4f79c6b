/**
 * @file
 * Minimal shared command-line helpers for the tools/ binaries.
 *
 * Exit-code convention (mirrors common Unix practice and is pinned
 * by the CLI hardening tests): 0 success, 1 "the tool ran and the
 * check failed" (lint findings, trace inconsistencies, chaos
 * verdicts), 2 usage/environment errors (unknown flag, malformed
 * number, unreadable or unwritable file, unknown workload).
 *
 * toolMain() turns FatalError (user error, SPT_FATAL) into exit 2
 * with a one-line diagnostic and PanicError/std::exception
 * (simulator bugs) into exit 70 (EX_SOFTWARE) so scripts can tell
 * "you misused me" from "I am broken".
 */

#ifndef SPT_COMMON_CLI_H
#define SPT_COMMON_CLI_H

#include <cstdint>
#include <functional>
#include <string>

namespace spt {

/** Parses a non-negative decimal integer; SPT_FATAL (-> exit 2 via
 *  toolMain) on empty input, trailing garbage, or overflow of
 *  @p max. @p what names the flag in the diagnostic. */
uint64_t parseUnsigned(const std::string &text, const char *what,
                       uint64_t max = UINT64_MAX);

/** Runs @p body, mapping exceptions to the tool exit-code
 *  convention above. @p tool prefixes the diagnostic line. */
int toolMain(const char *tool, const std::function<int()> &body);

} // namespace spt

#endif // SPT_COMMON_CLI_H
