# Runs PROGRAM with the space-separated ARGS and fails unless it exits
# with status EXPECTED. Used by ctest entries that check a CLI's refusal
# of bad arguments:
#   cmake -DPROGRAM=<exe> -DARGS="<args>" -DEXPECTED=<status> -P expect_exit.cmake
# (The -D definitions must come before -P.) A missing ARGS would run the
# program with its defaults, which for bench_certify is a long probe.
if(NOT DEFINED PROGRAM OR NOT DEFINED ARGS OR NOT DEFINED EXPECTED)
  message(FATAL_ERROR "expect_exit.cmake needs -DPROGRAM, -DARGS and "
                      "-DEXPECTED before -P")
endif()
separate_arguments(program_args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${program_args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output)
if(NOT status STREQUAL "${EXPECTED}")
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: exit status ${status}, expected "
                      "${EXPECTED}\n${output}")
endif()
