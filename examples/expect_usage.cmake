# Runs EXAMPLE with the space-separated ARGS and passes only when it prints
# its usage and exits with status 2. An abort, a crash or a run that goes
# ahead all fail (WILL_FAIL would accept an abort).
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXAMPLE}" ${args}
                RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT status STREQUAL "2" OR NOT err MATCHES "^usage: ")
  message(FATAL_ERROR "${EXAMPLE} ${ARGS}: exit status '${status}' (want 2), "
                      "stderr:\n${err}")
endif()
