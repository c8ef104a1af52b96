# Smoke test of the sleepscale command-line tool: run it once and fail
# unless it exits 0 and, when EXPECT_FILE is set, writes that file.
#
#   cmake -DCLI=<sleepscale binary> "-DARGS=farm --trace flat"
#         [-DEXPECT_FILE=out.csv] -P tests/cli_smoke.cmake
#
# CMakeLists.txt registers one ctest entry per smoke command.

separate_arguments(cli_args UNIX_COMMAND "${ARGS}")
if(EXPECT_FILE)
    file(REMOVE "${EXPECT_FILE}")
endif()
execute_process(COMMAND "${CLI}" ${cli_args} RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "sleepscale ${ARGS}: exited with ${status}")
endif()
if(EXPECT_FILE AND NOT EXISTS "${EXPECT_FILE}")
    message(FATAL_ERROR "sleepscale ${ARGS}: wrote no ${EXPECT_FILE}")
endif()
