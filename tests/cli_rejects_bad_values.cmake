# Runs the dynaspam CLI with bad job values and expects each to be
# rejected before anything runs: exit code 2 and an error naming the
# flag. Invoked by ctest as
#   cmake -DCLI=<path to dynaspam> -P cli_rejects_bad_values.cmake
#
# Each case is "<expected stderr regex>|<arguments>". The first group
# does not fit in an unsigned int ("bad value for <flag>"); the first
# of those wraps to a valid scale (4294967297 = 2^32 + 1 -> 1) when the
# range check is missing, so it fails fast instead of running the later
# cases, which would otherwise request absurd sizes. The second group
# fits but lies outside the job schema's bounds, which run, sweep and
# trace all check before they simulate.
foreach(case
        "bad value for --scale|run;--workload;bfs;--scale;4294967297;--no-cache"
        "bad value for --trace-length|run;--workload;bfs;--trace-length;99999999999999999999;--no-cache"
        "bad value for --fabrics|run;--workload;bfs;--fabrics;-1;--no-cache"
        "--scale|run;--workload;bfs;--scale;0;--no-cache"
        "--trace-length|run;--workload;bfs;--trace-length;0;--no-cache"
        "--scale|sweep;--figure;8;--workloads;bfs;--scale;0;--no-cache"
        "--scale|trace;bfs;--scale;0")
    string(FIND "${case}" "|" bar)
    string(SUBSTRING "${case}" 0 ${bar} expected)
    math(EXPR rest "${bar} + 1")
    string(SUBSTRING "${case}" ${rest} -1 args)
    list(JOIN args " " shown)
    execute_process(
        COMMAND ${CLI} ${args}
        RESULT_VARIABLE code
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT code EQUAL 2 OR NOT err MATCHES "${expected}")
        message(FATAL_ERROR
            "dynaspam ${shown}: expected exit 2 with \"${expected}\", "
            "got exit ${code}\nstderr: ${err}\nstdout: ${out}")
    endif()
endforeach()
