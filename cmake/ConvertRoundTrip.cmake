# Round-trip a generated trace through `trace_pack convert`: .ftr to
# .din and back to .ftr. `trace_pack verify` must print the same
# record digest, DIGEST, for all three files.
#
# Variables: TOOL (trace_pack), DIGEST (16 hex digits), WORKDIR.

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
    set(out "${out}" PARENT_SCOPE)
endfunction()

trace_pack(gen round_trip_a.ftr --refs=20000 --segments=3 --seed=5)
trace_pack(convert round_trip_a.ftr round_trip_b.din)
trace_pack(convert round_trip_b.din round_trip_c.ftr)
foreach(file round_trip_a.ftr round_trip_b.din round_trip_c.ftr)
    trace_pack(verify ${file})
    if(NOT out MATCHES "digest: ${DIGEST}")
        message(FATAL_ERROR "verify ${file}: want digest ${DIGEST}\n"
                            "${out}")
    endif()
endforeach()
