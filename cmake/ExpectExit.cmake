# Run TOOL with ARGS and require exit code EXIT; when MATCH is set,
# its stdout and stderr together must also match that regular
# expression. ctest's PASS_REGULAR_EXPRESSION ignores the exit code,
# and a program that aborts can print the very words a clean usage
# error prints, so this script checks both.
#
# Variables: TOOL (executable), ARGS (;-list), EXIT (wanted exit
# code), MATCH (optional regex), WORKDIR.

execute_process(
    COMMAND ${TOOL} ${ARGS}
    WORKING_DIRECTORY ${WORKDIR}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc STREQUAL EXIT)
    message(FATAL_ERROR
            "${TOOL} ${ARGS}: want exit ${EXIT}, got '${rc}'\n"
            "--- stdout ---\n${out}\n--- stderr ---\n${err}")
endif()
if(DEFINED MATCH AND NOT "${out}${err}" MATCHES "${MATCH}")
    message(FATAL_ERROR
            "${TOOL} ${ARGS}: output does not match '${MATCH}'\n"
            "--- stdout ---\n${out}\n--- stderr ---\n${err}")
endif()
