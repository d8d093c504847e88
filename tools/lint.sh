#!/usr/bin/env bash
#
# Custom lint for the DynaSpAM simulator sources. Checks idioms the
# compiler cannot:
#
#   1. naked `new` / `delete` — ownership must go through
#      std::make_unique / std::make_shared / containers;
#   2. non-<random> RNG (rand, srand, random_shuffle) in simulator
#      code — simulation must be deterministic and seedable;
#   3. wall-clock nondeterminism (time(), gettimeofday, system_clock)
#      in runner/simulation paths — results must not depend on when
#      they were produced (steady_clock for durations is fine);
#   4. headers missing an include guard (#pragma once or a classic
#      #ifndef guard — this codebase uses #ifndef DYNASPAM_*).
#
# Exits nonzero if any check fails. Run from anywhere:
#   tools/lint.sh
#
# When clang-tidy and build/compile_commands.json are both available,
# also runs clang-tidy over the library sources (CI does this; local
# toolchains without clang-tidy just skip it).

set -u
cd "$(dirname "$0")/.."

fail=0

say() { printf '%s\n' "$*"; }

# Sources under lint. tests/ and bench/ are exempt from the RNG and
# clock rules (tests may seed ad hoc; benchmarks time themselves) but
# not from the ownership rule.
sim_sources=$(find src apps -name '*.cc' -o -name '*.hh' | sort)
all_sources=$(find src apps tests bench -name '*.cc' -o -name '*.hh' | sort)

# grep over the given files with // and /*...*/ comment text stripped,
# so prose like "the new stripe" cannot trip the code checks.
grep_code() {
    local pattern=$1
    shift
    local f
    for f in "$@"; do
        sed -e 's_"[^"]*"_""_g' -e 's_//.*__' -e 's_/\*.*\*/__' \
            -e '/^[[:space:]]*\*/d' "$f" \
            | grep -nE "$pattern" \
            | sed "s|^|$f:|"
    done
    return 0
}

# --- 1. naked new/delete ---------------------------------------------------
# `new` appearing outside comments; placement/make_* forms and words
# containing "new" (renew, newPc) do not match.
naked_new=$(grep_code '(^|[^[:alnum:]_."])new[[:space:]]+[[:alnum:]_:<]' \
                      $all_sources)
if [ -n "$naked_new" ]; then
    say "lint: naked 'new' (use std::make_unique/std::make_shared):"
    say "$naked_new"
    fail=1
fi

naked_delete=$(grep_code '(^|[^[:alnum:]_."])delete[[:space:]]+[[:alnum:]_*]' \
                         $all_sources \
               | grep -vE '=[[:space:]]*delete' || true)
if [ -n "$naked_delete" ]; then
    say "lint: naked 'delete':"
    say "$naked_delete"
    fail=1
fi

# --- 2. non-<random> RNG in simulator code --------------------------------
legacy_rng=$(grep_code '(^|[^[:alnum:]_.:])(rand|srand|random_shuffle)[[:space:]]*\(' \
                       $sim_sources)
if [ -n "$legacy_rng" ]; then
    say "lint: legacy RNG in simulator code (use <random> with a fixed seed):"
    say "$legacy_rng"
    fail=1
fi

# --- 3. wall-clock nondeterminism -----------------------------------------
wall_clock=$(grep_code '(gettimeofday|[^[:alnum:]_]time[[:space:]]*\([[:space:]]*(NULL|nullptr|0)?[[:space:]]*\)|system_clock::now)' \
                       $sim_sources \
             | grep -vE 'steady_clock' || true)
if [ -n "$wall_clock" ]; then
    say "lint: wall-clock time in simulator/runner code (results must be"
    say "      reproducible; use steady_clock only for durations):"
    say "$wall_clock"
    fail=1
fi

# --- 4. headers without an include guard ----------------------------------
for hh in $(find src apps tests bench -name '*.hh' | sort); do
    if ! grep -qE '^#pragma once|^#ifndef [A-Z0-9_]+_HH' "$hh"; then
        say "lint: $hh: missing include guard (#pragma once or #ifndef ..._HH)"
        fail=1
    fi
done

# --- dynaspam-analyze (when built) ----------------------------------------
# The project's own checker applies token-level versions of checks 2-4
# (and adds fd-raii, check-side-effects, and the coordinator blocking
# rules), but over narrower trees: its determinism rule covers only
# src/{core,ooo,fabric,memory,sim,runner,explore} and its
# header-hygiene rule only src/. Checks 2-3 above scan all of src/ and
# apps/, and check 4 also the headers under tests/ and bench/, so the
# grep forms stay; they also work in trees with no build directory.
analyze_bin=""
for d in build build-analyze build-checked; do
    if [ -x "$d/tools/analyze/dynaspam-analyze" ]; then
        analyze_bin="$d/tools/analyze/dynaspam-analyze"
        break
    fi
done
if [ -n "$analyze_bin" ]; then
    say "lint: running dynaspam-analyze..."
    if ! "$analyze_bin" --root .; then
        fail=1
    fi
else
    say "lint: dynaspam-analyze not built; skipping (cmake --build build)"
fi

# --- clang-tidy (optional) -------------------------------------------------
if command -v clang-tidy >/dev/null 2>&1 \
   && [ -f build/compile_commands.json ]; then
    say "lint: running clang-tidy..."
    if ! clang-tidy -p build --quiet $(find src -name '*.cc' | sort); then
        fail=1
    fi
else
    say "lint: clang-tidy or build/compile_commands.json not found; skipping"
fi

if [ "$fail" -eq 0 ]; then
    say "lint: OK"
fi
exit "$fail"
