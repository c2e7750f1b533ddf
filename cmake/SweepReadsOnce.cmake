# A clean .ftr swept three ways must write byte-identical --json:
# read once into a shared buffer at --jobs=1 and at --jobs=4, and
# streamed one reader per job at --jobs=4 under a --mem-budget that
# refuses the buffer but holds the streaming jobs.
#
# The budget: the corpus is 200K references plus 7 flush markers,
# 204,807 records, so its buffer is 204,807 x 8 = 1,638,456 bytes.
# Streaming, at most 3 jobs run at once (the sweep has 3 specs), and
# each holds its hierarchy (a 4K level one and a 64K level two: under
# 64 KiB), at most four decoded 4K-record frames (4 x 32 KiB) and one
# payload buffer (under 32 KiB): under 3 x 224 KiB = 672 KiB. 1M
# (1,048,576 bytes) lies between the two.
#
# Variables: TOOL (trace_pack), WORKDIR.

function(trace_pack)
    execute_process(
        COMMAND ${TOOL} ${ARGN}
        WORKING_DIRECTORY ${WORKDIR}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "trace_pack ${ARGN} failed (rc=${rc}):\n"
                            "${out}${err}")
    endif()
endfunction()

trace_pack(gen reads_once.ftr --refs=200K --segments=8
           --frame-records=4K --seed=3)
trace_pack(sweep reads_once.ftr --jobs=1 --json=reads_once_jobs1.json)
trace_pack(sweep reads_once.ftr --jobs=4 --json=reads_once_jobs4.json)
trace_pack(sweep reads_once.ftr --jobs=4 --mem-budget=1M
           --json=reads_once_streamed.json)
file(READ ${WORKDIR}/reads_once_jobs1.json want)
foreach(run jobs4 streamed)
    file(READ ${WORKDIR}/reads_once_${run}.json got)
    if(NOT got STREQUAL want)
        message(FATAL_ERROR "reads_once_${run}.json differs from "
                            "reads_once_jobs1.json")
    endif()
endforeach()
