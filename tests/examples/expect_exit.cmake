# Runs `EXE ARG` and fails unless it exits with status EXPECTED and says
# why on stderr.  Usage:
#   cmake -DEXE=<binary> -DARG=<flag> -DEXPECTED=<code> -P expect_exit.cmake
execute_process(COMMAND ${EXE} ${ARG}
  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT status STREQUAL EXPECTED)
  message(FATAL_ERROR "${EXE} ${ARG}: exit ${status}, expected ${EXPECTED}")
endif()
if(err STREQUAL "")
  message(FATAL_ERROR "${EXE} ${ARG}: exit ${status} with no message")
endif()
message(STATUS "${EXE} ${ARG}: exit ${status}: ${err}")
