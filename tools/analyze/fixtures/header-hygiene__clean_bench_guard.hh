// fixture-path: bench/{}
// Selftest fixture: a header outside src/ keeps its whole path in the
// guard (only a leading src/ is dropped).

#ifndef DYNASPAM_BENCH_HEADER_HYGIENE__CLEAN_BENCH_GUARD_HH
#define DYNASPAM_BENCH_HEADER_HYGIENE__CLEAN_BENCH_GUARD_HH

#include <string>

namespace fixture
{
inline std::string
label()
{
    return "guarded";
}
} // namespace fixture

#endif // DYNASPAM_BENCH_HEADER_HYGIENE__CLEAN_BENCH_GUARD_HH
