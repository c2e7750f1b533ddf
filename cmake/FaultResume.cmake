# Two-phase fault + resume equivalence check for a bench tool.
#
# Phase 1 runs TOOL with a checkpoint journal. With FAIL_JOB set, it
# injects a hard failure on that job (--fail-job) plus --keep-going:
# the run must complete with the data-error exit code (2), render the
# failed row as a gap, and mark the job "failed" in the JSON report.
# Without FAIL_JOB, phase 1 runs clean and must exit 0.
#
# Phase 2 re-runs the same sweep with --resume pointing at the
# phase-1 journal and no fault: only the missing jobs execute (none
# after a clean phase 1, so the journal must come back unchanged),
# and stdout must match the checked-in GOLDEN file byte for byte —
# i.e. a crashed-and-resumed sweep is indistinguishable from a clean
# one.
#
# Variables: TOOL (executable), ARGS (;-list of common flags),
# FAIL_JOB (optional: index to fail in phase 1), GOLDEN (reference
# stdout), WORKDIR, OUT_PREFIX (filenames under WORKDIR).

set(journal ${WORKDIR}/${OUT_PREFIX}.journal)
set(json ${WORKDIR}/${OUT_PREFIX}.json)
file(REMOVE ${journal} ${json})

if(NOT DEFINED FAIL_JOB)
    # --- Phase 1: a clean run checkpoints every job ---
    execute_process(
        COMMAND ${TOOL} ${ARGS} --journal=${journal}
        WORKING_DIRECTORY ${WORKDIR}
        OUTPUT_FILE ${WORKDIR}/${OUT_PREFIX}_phase1.txt
        ERROR_VARIABLE stderr_text
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "phase 1: expected a clean run with --journal, got "
                "rc=${rc}:\n${stderr_text}")
    endif()
    file(READ ${journal} phase1_journal)
else()
    # --- Phase 1: one job fails, the sweep survives and checkpoints ---
    execute_process(
        COMMAND ${TOOL} ${ARGS} --fail-job=${FAIL_JOB} --keep-going
                --journal=${journal} --json=${json}
        WORKING_DIRECTORY ${WORKDIR}
        OUTPUT_FILE ${WORKDIR}/${OUT_PREFIX}_phase1.txt
        ERROR_VARIABLE stderr_text
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR
                "phase 1: expected exit code 2 (data error) from the "
                "injected job failure, got rc=${rc}:\n${stderr_text}")
    endif()

    file(READ ${json} json_text)
    string(FIND "${json_text}" "\"status\": \"failed\"" found)
    if(found EQUAL -1)
        message(FATAL_ERROR
                "phase 1: JSON report lacks a \"failed\" job:\n"
                "${json_text}")
    endif()

    # The failed job must be reported on stderr ("...: job N failed
    # (M attempt(s)): ..."); its table row renders as a gap.
    string(FIND "${stderr_text}" "job ${FAIL_JOB} failed" warn_found)
    if(warn_found EQUAL -1)
        message(FATAL_ERROR
                "phase 1: missing per-job failure report on stderr:\n"
                "${stderr_text}")
    endif()
endif()

# --- Phase 2: resume from the journal; result must be golden ---
execute_process(
    COMMAND ${TOOL} ${ARGS} --resume=${journal}
    WORKING_DIRECTORY ${WORKDIR}
    OUTPUT_FILE ${WORKDIR}/${OUT_PREFIX}_phase2.txt
    ERROR_VARIABLE stderr_text
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "phase 2: resume failed (rc=${rc}):\n${stderr_text}")
endif()

# After a clean phase 1 every job is restored: none runs again, so
# nothing is appended.
if(NOT DEFINED FAIL_JOB)
    file(READ ${journal} phase2_journal)
    if(NOT phase2_journal STREQUAL phase1_journal)
        message(FATAL_ERROR
                "phase 2: the resume ran jobs a clean journal held "
                "(it appended to the journal)")
    endif()
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORKDIR}/${OUT_PREFIX}_phase2.txt ${GOLDEN}
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    file(READ ${WORKDIR}/${OUT_PREFIX}_phase2.txt got)
    file(READ ${GOLDEN} want)
    message(FATAL_ERROR
            "resumed sweep output diverges from ${GOLDEN}:\n"
            "--- got ---\n${got}\n--- want ---\n${want}")
endif()
