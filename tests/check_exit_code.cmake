# Runs CMD (a ;-separated command line) and fails unless it exits
# with exactly EXPECT. CTest's WILL_FAIL only checks "nonzero", but
# the tools' exit convention distinguishes 1 (the check failed) from
# 2 (usage error) from 70 (internal bug) — see src/common/cli.h —
# and the negative-path CLI gates must pin the exact code.
#
# An optional FORBID regex also fails the gate when it matches the
# command's stdout or stderr, for a gate whose exit code alone does
# not show when the failure happened (say, after a sweep it should
# have refused to start).
#
# Usage: cmake -DCMD=<bin;arg;...> -DEXPECT=<code> [-DFORBID=<regex>]
#              -P check_exit_code.cmake

if(NOT DEFINED CMD OR NOT DEFINED EXPECT)
    message(FATAL_ERROR
        "usage: cmake -DCMD=<bin;arg;...> -DEXPECT=<code> "
        "-P check_exit_code.cmake")
endif()

execute_process(COMMAND ${CMD}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)

if(NOT rc EQUAL EXPECT)
    message(FATAL_ERROR
        "expected exit ${EXPECT}, got '${rc}'\n"
        "command: ${CMD}\nstdout:\n${out}\nstderr:\n${err}")
endif()

if(DEFINED FORBID AND "${out}${err}" MATCHES "${FORBID}")
    message(FATAL_ERROR
        "output matches the forbidden pattern '${FORBID}'\n"
        "command: ${CMD}\nstdout:\n${out}\nstderr:\n${err}")
endif()
