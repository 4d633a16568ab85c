# Run a tool with one malformed flag value and check that it fails as a
# usage error: exit code EXPECT_RC (an uncaught exception would abort with
# 134, which WILL_FAIL would also accept) and EXPECT_MSG on stderr, naming
# the flag or key. ARGS is a space-separated argument string.
# Invoked by ctest; see tests/CMakeLists.txt (cli_usage_error_*).

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
    COMMAND ${BIN} ${args}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT_RC}")
    message(FATAL_ERROR "exit ${rc}, expected ${EXPECT_RC}; stderr: ${err}")
endif()
string(FIND "${err}" "${EXPECT_MSG}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "stderr lacks \"${EXPECT_MSG}\": ${err}")
endif()
