# Runs the dynaspam CLI with numeric flag values that do not fit in an
# unsigned int and expects each to be rejected: exit code 2 and a
# "bad value for <flag>" error. Invoked by ctest as
#   cmake -DCLI=<path to dynaspam> -P cli_rejects_bad_values.cmake
#
# The first case wraps to a valid scale (4294967297 = 2^32 + 1 -> 1)
# when the range check is missing, so it fails fast instead of running
# the later cases, which would otherwise request absurd sizes.
foreach(args
        "--scale;4294967297"
        "--trace-length;99999999999999999999"
        "--fabrics;-1")
    list(GET args 0 flag)
    list(JOIN args " " shown)
    execute_process(
        COMMAND ${CLI} run --workload bfs ${args} --no-cache
        RESULT_VARIABLE code
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT code EQUAL 2 OR NOT err MATCHES "bad value for ${flag}")
        message(FATAL_ERROR
            "dynaspam run ${shown}: expected exit 2 with \"bad value for "
            "${flag}\", got exit ${code}\nstderr: ${err}\nstdout: ${out}")
    endif()
endforeach()
