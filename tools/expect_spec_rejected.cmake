# Runs `rmp_run [FLAGS] SPEC` and requires the spec-error exit code (1) with
# a message naming NEEDLE.  Usage:
#   cmake -DRMP_RUN=<rmp_run> [-DFLAGS=--resume] -DSPEC=<spec.json>
#         -DNEEDLE=<text> -P expect_spec_rejected.cmake
execute_process(COMMAND ${RMP_RUN} ${FLAGS} ${SPEC}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "rmp_run ${FLAGS} ${SPEC} exited ${rc}, expected 1\n${out}${err}")
endif()
string(FIND "${err}" "${NEEDLE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "rmp_run error does not name \"${NEEDLE}\": ${err}")
endif()
