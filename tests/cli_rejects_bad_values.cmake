# Runs the dynaspam CLI and the gated benches with bad values and
# expects each to be rejected before anything runs: exit code 2 and an
# error naming the flag. Invoked by ctest as
#   cmake -Ddynaspam=<path> -Dbench_simspeed=<path> ... -P cli_rejects_bad_values.cmake
# with one -D<binary>=<path> per binary named below.
#
# Each case is "<binary>|<expected stderr regex>|<arguments>". The
# benches come first, led by one that aborted instead of exiting 2 when
# the benches parsed flags by hand, so it fails fast rather than
# running the later cases, which would otherwise start long runs
# (bench_serve --requests -1 used to wrap to 4294967295 requests). Then
# the CLI: the first group does not fit in an unsigned int ("bad value
# for <flag>"); the second fits but lies outside the job schema's
# bounds, which run, sweep and trace all check before they simulate.
foreach(case
        "bench_simspeed|bad value for --scale|--scale;abc"
        "bench_simspeed|bad value for --tolerance|--tolerance;5"
        "bench_simspeed|unknown workload|--workloads;nosuch"
        "bench_explore|missing value for --tolerance|--tolerance"
        "bench_explore|bad value for --seed|--seed;-1"
        "bench_explore|cannot read baseline|--baseline;no-such-baseline.json"
        "bench_snapshot|bad value for --tolerance|--tolerance;2"
        "bench_snapshot|bad value for --points|--points;abc"
        "bench_serve|bad value for --requests|--requests;-1"
        "bench_serve|bad value for --tolerance|--tolerance;nan"
        "bench_serve|usage: bench_serve|--cached-pct;101"
        "dynaspam|bad value for --scale|run;--workload;bfs;--scale;4294967297;--no-cache"
        "dynaspam|bad value for --trace-length|run;--workload;bfs;--trace-length;99999999999999999999;--no-cache"
        "dynaspam|bad value for --fabrics|run;--workload;bfs;--fabrics;-1;--no-cache"
        "dynaspam|--scale|run;--workload;bfs;--scale;0;--no-cache"
        "dynaspam|--trace-length|run;--workload;bfs;--trace-length;0;--no-cache"
        "dynaspam|--scale|sweep;--figure;8;--workloads;bfs;--scale;0;--no-cache"
        "dynaspam|--scale|trace;bfs;--scale;0")
    string(REPLACE "|" ";" fields "${case}")
    list(POP_FRONT fields bin expected)
    list(JOIN fields " " shown)
    execute_process(
        COMMAND ${${bin}} ${fields}
        RESULT_VARIABLE code
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT code EQUAL 2 OR NOT err MATCHES "${expected}")
        message(FATAL_ERROR
            "${bin} ${shown}: expected exit 2 with \"${expected}\", "
            "got exit ${code}\nstderr: ${err}\nstdout: ${out}")
    endif()
endforeach()
