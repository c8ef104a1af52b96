# A bare output-path flag (--csv, --epochs-csv or --out with no path
# after it) must write the command's documented default file, never a
# file named "true". Each command runs in a fresh directory, which must
# hold exactly its default file afterwards.
#
#   cmake -DCLI=<sleepscale binary> -DWORKDIR=<work dir>
#         -P tests/cli_bare_output.cmake

function(expect_default_output name args default_file)
    set(dir "${WORKDIR}/${name}")
    file(REMOVE_RECURSE "${dir}")
    file(MAKE_DIRECTORY "${dir}")
    separate_arguments(cli_args UNIX_COMMAND "${args}")
    execute_process(COMMAND "${CLI}" ${cli_args}
                    WORKING_DIRECTORY "${dir}"
                    RESULT_VARIABLE status OUTPUT_QUIET)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "sleepscale ${args}: exited with ${status}")
    endif()
    file(GLOB written RELATIVE "${dir}" "${dir}/*")
    if(NOT written STREQUAL default_file)
        message(FATAL_ERROR "sleepscale ${args}: wrote '${written}', "
                            "expected only '${default_file}'")
    endif()
endfunction()

expect_default_output(grid
    "grid --trace flat --sweep-strategy SS,DVFS --csv" grid.csv)
expect_default_output(run "run --trace flat --epochs-csv" epochs.csv)
expect_default_output(trace "trace --kind fs --days 1 --out" fs_trace.csv)
